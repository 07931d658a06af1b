(* Lint: every export in lib/ has a user.  Reads the typed trees under the
   build directory named on the command line: each [val] of a
   lib/**/*.mli is keyed by its declaring location, and each identifier
   in every .cmt records the location of the value it references (a
   reference across modules carries the .mli location).  A [val] whose
   only users are its own .ml fails; so does one whose users all sit in
   test/, unless it is allowlisted below with exactly those test files
   and a reason.  An entry that no longer matches fails too. *)

open Typedtree

(* (value, test files that use it, why it stays).  Three reasons are
   accepted: a read-only observer of state the production path maintains
   and no other export shows; a paper mechanism whose doc comment cites
   its section; and, marked "deferred", an export whose deletion would
   also delete a tier-1 test case (ROADMAP item 13). *)
let observer = "observer: no other export shows this state"
let deferred test = "deferred: deleting it deletes the tier-1 case " ^ test

let allowlist =
  [
    ("Checksum.crc32_msg", [ "test/test_buf.ml" ], deferred "buf.checksum crc32_msg ...");
    ("Checksum.internet_msg", [ "test/test_buf.ml" ], deferred "buf.checksum internet_msg ...");
    ("Engine.Timer.expirations", [ "test/test_sim.ml" ], observer);
    ("Engine.pending_events", [ "test/test_sim.ml" ], observer);
    ("Fec.Receiver.pending_groups", [ "test/test_mech.ml" ], observer);
    ("Fec.Receiver.recovered", [ "test/test_mech.ml" ], observer);
    ("Fec.Sender.pending", [ "test/test_mech.ml" ], observer);
    ("Host.packets", [ "test/test_mech.ml" ], observer);
    ( "Invariant.observe",
      [ "test/test_chaos.ml" ],
      "oracle seam: the oracle tests feed gaps, duplicates and damage no correct stack delivers" );
    ("Mantts.renegotiate", [ "test/test_mantts.ml" ], "paper mechanism: Adjust the TSC, §4.1.2");
    ("Mantts.synchronize", [ "test/test_mantts.ml" ], "paper mechanism: stream synchronization, §3");
    ("Msg.concat", [ "test/test_buf.ml" ], deferred "buf.msg fragment and concat");
    ("Msg.header_length", [ "test/test_buf.ml" ], observer);
    ("Playout.discarded", [ "test/test_mech.ml" ], observer);
    ("Playout.released", [ "test/test_mech.ml" ], observer);
    ("Pool.capacity", [ "test/test_buf.ml" ], observer);
    ("Pool.in_use", [ "test/test_buf.ml" ], observer);
    ("Pool.misses", [ "test/test_buf.ml" ], observer);
    ("Protograph.add_layer", [ "test/test_core.ml" ], "paper mechanism: graph edit, §4.2.1");
    ("Protograph.connect", [ "test/test_core.ml" ], "paper mechanism: graph edit, §4.2.1");
    ("Protograph.create", [ "test/test_core.ml" ], "paper mechanism: graph edit, §4.2.1");
    ("Protograph.insert_between", [ "test/test_core.ml" ], "paper mechanism: graph edit, §4.2.1");
    ("Protograph.layer", [ "test/test_core.ml" ], "paper mechanism: graph edit, §4.2.1");
    ("Protograph.layers", [ "test/test_core.ml" ], "paper mechanism: graph query, §4.2.1");
    ("Protograph.lowers", [ "test/test_core.ml" ], "paper mechanism: graph query, §4.2.1");
    ("Protograph.remove_layer", [ "test/test_core.ml" ], "paper mechanism: graph edit, §4.2.1");
    ("Protograph.uppers", [ "test/test_core.ml" ], "paper mechanism: graph query, §4.2.1");
    ("Reorder.highest_seen", [ "test/test_mech.ml" ], observer);
    ("Rtt.rttvar", [ "test/test_mech.ml" ], observer);
    ("Rtt.samples", [ "test/test_core.ml"; "test/test_mech.ml" ], observer);
    ("Session.Dispatcher.half_open_count", [ "test/test_lifecycle.ml"; "test/test_swarm.ml" ], observer);
    ( "Session.Dispatcher.time_wait_count",
      [ "test/test_lifecycle.ml"; "test/test_steer.ml"; "test/test_swarm.ml" ],
      observer );
    ("Stats.estimator_kind", [ "test/test_megaswarm.ml" ], observer);
    ( "Stats.quantile",
      [ "test/test_megaswarm.ml"; "test/test_sim.ml" ],
      "observer: summaries show p50/p95/p99 only, the tests probe any q" );
    ("Tko.Templates.bulk_lfn", [ "test/test_core.ml" ], "paper mechanism: template cache, §4.2.2");
    ("Tko.Templates.names", [ "test/test_core.ml" ], "paper mechanism: template cache, §4.2.2");
    ( "Tko.Templates.transaction",
      [ "test/test_integration.ml" ],
      "paper mechanism: template cache, §4.2.2" );
    ("Unites.metric_kind", [ "test/test_core.ml" ], "paper mechanism: blackbox/whitebox split, §4.3");
    ("Window.bytes_in_flight", [ "test/test_mech.ml" ], observer);
  ]

let is_test file = String.starts_with ~prefix:"test/" file

(* Location key -> files that reference the value declared there. *)
let users : (string * int, string list) Hashtbl.t = Hashtbl.create 4096

let reference (loc : Location.t) file =
  let key = (loc.loc_start.pos_fname, loc.loc_start.pos_cnum) in
  let known = Option.value (Hashtbl.find_opt users key) ~default:[] in
  if not (List.mem file known) then Hashtbl.replace users key (file :: known)

let references file str =
  let expr sub e =
    (match e.exp_desc with Texp_ident (_, _, vd) -> reference vd.val_loc file | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str

(* (qualified name, declaring location) of every exported value. *)
let vals = ref []

let rec signature path sg =
  List.iter
    (fun si ->
      match si.sig_desc with
      | Tsig_value vd -> vals := (String.concat "." (path @ [ vd.val_name.txt ]), vd.val_loc) :: !vals
      | Tsig_module { md_name = { txt = Some name; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
        ->
        signature (path @ [ name ]) sg
      | _ -> ())
    sg.sig_items

let rec walk dir =
  Array.iter
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then walk path
      else if Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti" then
        let cmt = Cmt_format.read_cmt path in
        match (cmt.cmt_annots, cmt.cmt_sourcefile) with
        | Implementation str, Some file -> references file str
        | Interface sg, Some file
          when String.starts_with ~prefix:"lib/" file && Filename.check_suffix file ".mli" ->
          let modname = Filename.(basename file |> remove_extension |> String.capitalize_ascii) in
          signature [ modname ] sg
        | _ -> ())
    (Sys.readdir dir)

let () =
  walk Sys.argv.(1);
  let failed = ref false in
  let fail (loc : Location.t) fmt =
    failed := true;
    Printf.eprintf ("%s:%d: " ^^ fmt ^^ "\n") loc.loc_start.pos_fname loc.loc_start.pos_lnum
  in
  let classified =
    List.map
      (fun (name, (loc : Location.t)) ->
        let own = Filename.remove_extension loc.loc_start.pos_fname ^ ".ml" in
        let found = Hashtbl.find_opt users (loc.loc_start.pos_fname, loc.loc_start.pos_cnum) in
        (name, loc, List.sort compare (List.filter (( <> ) own) (Option.value found ~default:[]))))
      (List.sort compare !vals)
  in
  List.iter
    (fun (name, loc, files) ->
      if files = [] then fail loc "%s has no user outside its own module: delete it" name
      else if List.for_all is_test files && not (List.exists (fun (n, _, _) -> n = name) allowlist)
      then
        fail loc "%s is used only by %s: allowlist exactly these files with a reason, or delete it"
          name (String.concat " " files))
    classified;
  List.iter
    (fun (name, listed, _) ->
      match List.find_opt (fun (n, _, _) -> n = name) classified with
      | None ->
        failed := true;
        Printf.eprintf "allowlisted %s no longer exists: drop it from the allowlist\n" name
      | Some (_, loc, files) ->
        if not (files <> [] && List.for_all is_test files && List.sort compare listed = files) then
          fail loc "allowlisted %s is now used by %s, not exactly %s: update or drop the entry" name
            (if files = [] then "nothing" else String.concat " " files)
            (String.concat " " listed))
    allowlist;
  if !failed then exit 1
