(* Lint: no module-level mutable state in lib/.  Parses each file named
   on the command line and fails on any structure-level binding (nested
   modules included) whose right-hand side calls a mutable constructor,
   unless the binding is allowlisted below with its reason.  Parsing, not
   a regex: function-local [let]s can sit at the same indentation as a
   nested module's. *)

open Parsetree

let allowlist =
  [
    ("Link.counter", "Atomic; default link names need only be unique");
    ("Msg.copies_counter", "Atomic; e12 and test_buf read the copy counter");
  ]

let constructors =
  [ "ref"; "Hashtbl.create"; "Array.make"; "Array.init"; "Atomic.make"; "Queue.create";
    "Stack.create"; "Buffer.create"; "Bytes.create"; "Bytes.make"; "Weak.create" ]

let rec constructor e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> constructor e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match Longident.flatten txt with
    | "Stdlib" :: path | path ->
      let name = String.concat "." path in
      if List.mem name constructors then Some name else None)
  | _ -> None

let rec var p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> var p
  | _ -> None

(* (qualified name, constructor, location) of every binding found. *)
let found = ref []

let rec structure path = List.iter (item path)

and item path si =
  match si.pstr_desc with
  | Pstr_value (_, vbs) ->
    List.iter
      (fun vb ->
        match (var vb.pvb_pat, constructor vb.pvb_expr) with
        | Some name, Some ctor ->
          found := (String.concat "." (path @ [ name ]), ctor, vb.pvb_loc) :: !found
        | _ -> ())
      vbs
  | Pstr_module mb -> module_binding path mb
  | Pstr_recmodule mbs -> List.iter (module_binding path) mbs
  | Pstr_include { pincl_mod; _ } -> module_expr path pincl_mod
  | _ -> ()

and module_binding path mb =
  module_expr (path @ [ Option.value mb.pmb_name.txt ~default:"_" ]) mb.pmb_expr

and module_expr path me =
  match me.pmod_desc with
  | Pmod_structure items -> structure path items
  | Pmod_constraint (me, _) | Pmod_functor (_, me) -> module_expr path me
  | _ -> ()

let () =
  Array.iteri
    (fun i file ->
      if i > 0 then begin
        let lexbuf = Lexing.from_string (In_channel.with_open_bin file In_channel.input_all) in
        Location.init lexbuf file;
        let modname = Filename.(basename file |> remove_extension |> String.capitalize_ascii) in
        structure [ modname ] (Parse.implementation lexbuf)
      end)
    Sys.argv;
  let failed = ref false in
  List.iter
    (fun (name, ctor, (loc : Location.t)) ->
      if not (List.mem_assoc name allowlist) then begin
        failed := true;
        Printf.eprintf "%s:%d: module-level mutable state: %s = %s ...\n"
          loc.loc_start.pos_fname loc.loc_start.pos_lnum name ctor
      end)
    (List.rev !found);
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (n, _, _) -> n = name) !found) then begin
        failed := true;
        Printf.eprintf "allowlisted %s no longer exists: drop it from the allowlist\n" name
      end)
    allowlist;
  if !failed then exit 1
