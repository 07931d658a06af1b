(* Lint: the per-PDU path does no polymorphic hashing.  Parses each file
   named on the command line and fails on any identifier, type or module
   path that names [Hashtbl]: a generic table hashes and compares its
   keys through the polymorphic primitives on every lookup.  Tables on
   this path are [Inttbl]s or arrays.  Parsing, not a regex: comments may
   name the module. *)

open Parsetree

let found = ref []

let check file (lid : Longident.t Location.loc) =
  let path = Longident.flatten lid.txt in
  if List.mem "Hashtbl" path then
    found := (file, lid.loc.loc_start.pos_lnum, String.concat "." path) :: !found

let iterator file =
  let open Ast_iterator in
  {
    default_iterator with
    expr =
      (fun it e ->
        (match e.pexp_desc with Pexp_ident lid -> check file lid | _ -> ());
        default_iterator.expr it e);
    typ =
      (fun it t ->
        (match t.ptyp_desc with Ptyp_constr (lid, _) -> check file lid | _ -> ());
        default_iterator.typ it t);
    module_expr =
      (fun it m ->
        (match m.pmod_desc with Pmod_ident lid -> check file lid | _ -> ());
        default_iterator.module_expr it m);
  }

let () =
  Array.iteri
    (fun i file ->
      if i > 0 then begin
        let source = In_channel.with_open_bin file In_channel.input_all in
        let lexbuf = Lexing.from_string source in
        Location.init lexbuf file;
        let it = iterator file in
        it.structure it (Parse.implementation lexbuf)
      end)
    Sys.argv;
  List.iter
    (fun (file, line, name) ->
      Printf.eprintf "%s:%d: %s on the per-PDU path: use Inttbl or an array\n" file line
        name)
    (List.rev !found);
  if !found <> [] then exit 1
