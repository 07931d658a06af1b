open Adaptive_sim
open Adaptive_buf

(* Byte-wise XOR of payloads, padded with zeros to the longest. *)
let xor_strings parts =
  let width = List.fold_left (fun acc s -> max acc (String.length s)) 0 parts in
  let acc = Bytes.make width '\000' in
  List.iter
    (fun s ->
      String.iteri
        (fun i c -> Bytes.set acc i (Char.chr (Char.code (Bytes.get acc i) lxor Char.code c)))
        s)
    parts;
  Bytes.unsafe_to_string acc

let parity_of covered =
  let payloads =
    List.map (fun (s : Pdu.seg) -> Option.map Msg.data_to_string s.Pdu.payload) covered
  in
  if List.exists Option.is_none payloads || payloads = [] then None
  else Some (Msg.of_string (xor_strings (List.filter_map Fun.id payloads)))

module Sender = struct
  type t = { group : int; mutable acc : Pdu.seg list (* newest first *) }

  let create ~group =
    if group < 2 then invalid_arg "Fec.Sender.create: group must be >= 2";
    { group; acc = [] }

  let group t = t.group

  let push t seg =
    t.acc <- seg :: t.acc;
    if List.length t.acc >= t.group then begin
      let covered = List.rev t.acc in
      t.acc <- [];
      Some covered
    end
    else None

  let flush t =
    if t.acc = [] then None
    else begin
      let covered = List.rev t.acc in
      t.acc <- [];
      Some covered
    end

  let pending t = List.length t.acc
end

module Receiver = struct
  type pending = { covered : Pdu.seg list; parity : Msg.t option }

  type t = {
    seen : unit Inttbl.t;
    groups : (int, pending) Hashtbl.t; (* pending parity, keyed by start *)
    payloads : string Inttbl.t; (* recent payload bytes by seq *)
    order : int Queue.t; (* eviction order for [payloads] *)
    mutable recovered_count : int;
  }

  (* Recent segment payloads retained for byte-level reconstruction. *)
  let cache_cap = 256

  let create () =
    {
      seen = Inttbl.create 64;
      groups = Hashtbl.create 8;
      payloads = Inttbl.create 64;
      order = Queue.create ();
      recovered_count = 0;
    }

  let note_seen t (seg : Pdu.seg) =
    if not (Inttbl.mem t.seen seg.Pdu.seq) then Inttbl.replace t.seen seg.Pdu.seq ();
    match seg.Pdu.payload with
    | None -> ()
    | Some m ->
      if not (Inttbl.mem t.payloads seg.Pdu.seq) then begin
        if Queue.length t.order >= cache_cap then begin
          let old = Queue.pop t.order in
          Inttbl.remove t.payloads old
        end;
        Inttbl.replace t.payloads seg.Pdu.seq (Msg.data_to_string m);
        Queue.push seg.Pdu.seq t.order
      end

  let missing_of t covered =
    List.filter (fun (s : Pdu.seg) -> not (Inttbl.mem t.seen s.Pdu.seq)) covered

  (* Reconstruct the missing segment's bytes from the parity block and the
     cached payloads of every other group member, when all are present. *)
  let rebuild_payload t g (missing : Pdu.seg) =
    match g.parity with
    | None -> None
    | Some parity ->
      let others =
        List.filter (fun (s : Pdu.seg) -> s.Pdu.seq <> missing.Pdu.seq) g.covered
      in
      let cached =
        List.map (fun (s : Pdu.seg) -> Inttbl.find_opt t.payloads s.Pdu.seq) others
      in
      if List.exists Option.is_none cached then None
      else
        let block =
          xor_strings (Msg.data_to_string parity :: List.filter_map Fun.id cached)
        in
        Some (Msg.of_string (String.sub block 0 missing.Pdu.seg_bytes))

  (* With parity in hand, a group reconstructs once exactly one covered
     segment is missing.  Returns the reconstruction, if any. *)
  let resolve t g =
    match missing_of t g.covered with
    | [] -> `Complete
    | [ seg ] ->
      let rebuilt = { seg with Pdu.payload = rebuild_payload t g seg } in
      note_seen t rebuilt;
      t.recovered_count <- t.recovered_count + 1;
      `Recovered rebuilt
    | _ :: _ :: _ -> `Still_short

  let on_data t seg =
    note_seen t seg;
    let resolved = ref [] in
    let finished = ref [] in
    Hashtbl.iter
      (fun start g ->
        if List.exists (fun (s : Pdu.seg) -> s.Pdu.seq = seg.Pdu.seq) g.covered then
          match resolve t g with
          | `Complete -> finished := start :: !finished
          | `Recovered rebuilt ->
            finished := start :: !finished;
            resolved := rebuilt :: !resolved
          | `Still_short -> ())
      t.groups;
    List.iter (Hashtbl.remove t.groups) !finished;
    !resolved

  let on_parity t ~covered ~parity =
    match covered with
    | [] -> []
    | first :: _ -> (
      let g = { covered; parity } in
      match resolve t g with
      | `Complete -> []
      | `Recovered seg -> [ seg ]
      | `Still_short ->
        Hashtbl.replace t.groups first.Pdu.seq g;
        [])

  let recovered t = t.recovered_count
  let pending_groups t = Hashtbl.length t.groups
end
