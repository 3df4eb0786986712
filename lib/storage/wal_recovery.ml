type seg_build = {
  seg_id : int;
  cls : string;
  hardened : bool;
  versions : Checkpoint.seg_version list;
}

type expectation = {
  committed : (int * int) list;
  aborted : (int * int) list;
  losers : int list;
  rows : Checkpoint.row list;
  segments : seg_build list;
  dead_segs : int list;
  next_seg_id : int;
  oracle_floor : int;
  replayed : int;
  indoubt : (int * int) list;
  resolved_commits : (int * int) list;
  decisions : (int * int) list;
}

type seg_acc = {
  sa_cls : string;
  mutable sa_hardened : bool;
  mutable sa_versions : Checkpoint.seg_version list; (* reversed *)
}

(* ------------------------------------------------------------------ *)
(* The running replay state: a checkpoint base plus every record past
   it, before in-doubt resolution. [expect] is this state finished
   against a resolver. *)

type state = {
  anchor : (int * Checkpoint.t) option; (* the base, with its Ckpt_end LSN *)
  committed : (int, int) Hashtbl.t;
  aborted : (int, int) Hashtbl.t;
  live : (int, unit) Hashtbl.t;
  rows : (int, Checkpoint.row) Hashtbl.t;
  pending : (int, (int * Checkpoint.pending_write) list ref) Hashtbl.t;
  segs : (int, seg_acc) Hashtbl.t;
  prepared : (int, int) Hashtbl.t;
  mutable dead_segs : int list;
  mutable max_ts : int;
  mutable next_seg_id : int;
  mutable replayed : int;
  mutable based : bool; (* anchor loaded *)
  mutable unapplied : Wal_record.t list; (* reversed; folded in on demand *)
}

let empty_checkpoint =
  {
    Checkpoint.at = 0;
    oracle_next = 1;
    live = [];
    committed = [];
    aborted = [];
    rows = [];
    pending = [];
    segments = [];
    next_seg_id = 0;
    prepared = [];
    decisions = [];
  }

let see st ts = if ts > st.max_ts then st.max_ts <- ts

let state_of anchor =
  {
    anchor;
    committed = Hashtbl.create 256;
    aborted = Hashtbl.create 64;
    live = Hashtbl.create 64;
    rows = Hashtbl.create 256;
    pending = Hashtbl.create 64;
    segs = Hashtbl.create 64;
    prepared = Hashtbl.create 16;
    dead_segs = [];
    max_ts = 0;
    next_seg_id = 0;
    replayed = 0;
    based = false;
    unapplied = [];
  }

(* Load the anchor checkpoint into a fresh state. *)
let load_base st =
  let base = match st.anchor with Some (_, ck) -> ck | None -> empty_checkpoint in
  st.max_ts <- base.Checkpoint.oracle_next - 1;
  st.next_seg_id <- base.Checkpoint.next_seg_id;
  let see = see st in
  List.iter (fun (tid, cts) -> Hashtbl.replace st.committed tid cts; see tid; see cts)
    base.Checkpoint.committed;
  List.iter (fun (tid, ats) -> Hashtbl.replace st.aborted tid ats; see tid; see ats)
    base.Checkpoint.aborted;
  List.iter (fun tid -> Hashtbl.replace st.live tid (); see tid) base.Checkpoint.live;
  List.iter (fun (r : Checkpoint.row) -> Hashtbl.replace st.rows r.rid r; see r.vs; see r.cts)
    base.Checkpoint.rows;
  List.iter
    (fun (p : Checkpoint.pending) ->
      see p.tid;
      Hashtbl.replace st.pending p.tid
        (ref (List.map (fun (w : Checkpoint.pending_write) -> (w.rid, w)) p.writes)))
    base.Checkpoint.pending;
  List.iter
    (fun (s : Checkpoint.seg) ->
      Hashtbl.replace st.segs s.seg_id
        { sa_cls = s.cls; sa_hardened = s.hardened; sa_versions = List.rev s.versions };
      if s.seg_id >= st.next_seg_id then st.next_seg_id <- s.seg_id + 1)
    base.Checkpoint.segments;
  List.iter
    (fun (tid, coord) ->
      see tid;
      Hashtbl.replace st.prepared tid coord;
      Hashtbl.replace st.live tid ())
    base.Checkpoint.prepared;
  List.iter (fun (gid, cts) -> see gid; see cts) base.Checkpoint.decisions

let note_write st tid (w : Checkpoint.pending_write) =
  let writes =
    match Hashtbl.find_opt st.pending tid with
    | Some ws -> ws
    | None ->
        let ws = ref [] in
        Hashtbl.replace st.pending tid ws;
        ws
  in
  (* Same-transaction overwrite: only the final value exists. *)
  writes := (w.rid, w) :: List.remove_assoc w.rid !writes

(* The order of polymorphic [compare] on int pairs, without its cost. *)
let compare_pair (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let commit_row tid cts (w : Checkpoint.pending_write) =
  { Checkpoint.rid = w.rid; value = w.value; vs = tid; vs_time = w.vs_time; cts }

let apply st (r : Wal_record.t) =
  let see = see st in
  st.replayed <- st.replayed + 1;
  match r.payload with
  | Wal_record.Txn_begin { tid } ->
      see tid;
      Hashtbl.replace st.live tid ()
  | Wal_record.Txn_commit { tid; cts } -> (
      see tid;
      see cts;
      Hashtbl.remove st.live tid;
      Hashtbl.remove st.prepared tid;
      Hashtbl.replace st.committed tid cts;
      match Hashtbl.find_opt st.pending tid with
      | None -> ()
      | Some ws ->
          Hashtbl.remove st.pending tid;
          List.iter
            (fun (_, w) -> Hashtbl.replace st.rows w.Checkpoint.rid (commit_row tid cts w))
            (List.rev !ws))
  | Wal_record.Txn_abort { tid; ats } ->
      see tid;
      see ats;
      Hashtbl.remove st.live tid;
      Hashtbl.remove st.pending tid;
      Hashtbl.remove st.prepared tid;
      Hashtbl.replace st.aborted tid ats
  | Wal_record.Version_insert { tid; rid; value } ->
      see tid;
      note_write st tid { Checkpoint.rid; value; vs_time = r.at }
  | Wal_record.Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi } ->
      see vs;
      see ve;
      see lo;
      see hi;
      if seg_id >= st.next_seg_id then st.next_seg_id <- seg_id + 1;
      let acc =
        match Hashtbl.find_opt st.segs seg_id with
        | Some acc -> acc
        | None ->
            let acc = { sa_cls = cls; sa_hardened = false; sa_versions = [] } in
            Hashtbl.replace st.segs seg_id acc;
            acc
      in
      acc.sa_versions <-
        { Checkpoint.rid; vs; ve; vs_time; ve_time; bytes; value; lo; hi } :: acc.sa_versions
  | Wal_record.Seg_harden { seg_id } -> (
      match Hashtbl.find_opt st.segs seg_id with
      | Some acc -> acc.sa_hardened <- true
      | None -> ())
  | Wal_record.Seg_drop { seg_id } | Wal_record.Seg_cut { seg_id } ->
      Hashtbl.remove st.segs seg_id;
      st.dead_segs <- seg_id :: st.dead_segs
  | Wal_record.Prepare { tid; coord; shards = _ } ->
      see tid;
      (* Prepared and not yet resolved locally: the transaction is
         in-doubt, not a loser — rollback must wait for the
         coordinator's verdict. *)
      Hashtbl.replace st.prepared tid coord;
      Hashtbl.replace st.live tid ()
  | Wal_record.Coord_commit { gid; cts; shards = _ } ->
      (* The decision itself is kept prefix-wide by the tracker. *)
      see gid;
      see cts
  | Wal_record.Coord_abort { gid } | Wal_record.Ack { gid; _ } | Wal_record.Forget { gid } ->
      (* Presumed abort: the absence of a commit decision already
         means abort, and acks/forgets only trim the coordinator's
         in-doubt table. *)
      see gid
  | Wal_record.Promote _ | Wal_record.Rep_ack _ ->
      (* Replication bookkeeping: fencing markers and ship/ack
         watermarks carry no row state — replay skips them. *)
      ()
  | Wal_record.Ckpt_begin | Wal_record.Ckpt_end _ ->
      (* Only a complete checkpoint re-bases the state (the tracker does
         that); a trailing Ckpt_begin whose end was lost is ignored. *)
      ()

(* A state is built lazily: a checkpoint that re-bases it first makes
   every record before it moot, so a one-shot analysis loads only the
   last checkpoint and replays only the tail past it. *)
let defer st r = st.unapplied <- r :: st.unapplied

let settle st =
  if not st.based then begin
    load_base st;
    st.based <- true
  end;
  if st.unapplied <> [] then begin
    List.iter (apply st) (List.rev st.unapplied);
    st.unapplied <- []
  end

(* ------------------------------------------------------------------ *)
(* The tracker: a cursor over one log and the states folded so far. *)

type anchor = Last_checkpoint | Before_promotion

(* Everything folded from one generation of the device. *)
type fold = {
  generation : int;
  own_shard : int;
  mutable cursor : int; (* LSN of the last trustworthy frame; 0 if none *)
  mutable stuck : bool; (* an untrustworthy frame ends the prefix for good *)
  mutable attempted : int; (* frames decoded *)
  mutable survivors : int;
  mutable records : Wal_record.t list; (* reversed; only with [keep_records] *)
  mutable exp : state; (* anchored at the last complete checkpoint *)
  mutable ckpt_decisions : (int, int) Hashtbl.t; (* that checkpoint's decision window *)
  mutable loss : state option; (* anchored before a promotion; None = [exp] *)
  mutable promoted : bool; (* a Promote since the last Ckpt_end *)
  coord : (int, int) Hashtbl.t; (* prefix-wide Coord_commit: gid -> cts *)
  prep_seen : (int, int) Hashtbl.t; (* prefix-wide Prepare: tid -> coord *)
  prepared_commits : (int * int * int) Vec.t; (* (lsn, tid, coord), LSN order *)
  bare_commits : (int, int) Hashtbl.t; (* tid -> LSN of a commit with no Prepare before it *)
}

type tracker = {
  wal : Wal.t;
  check_crc : bool;
  keep_records : bool;
  mutable f : fold;
  mutable decoded : int;
  mutable rewound : int;
}

let fresh_fold wal =
  {
    generation = Wal.generation wal;
    own_shard = Wal.shard wal;
    cursor = 0;
    stuck = false;
    attempted = 0;
    survivors = 0;
    records = [];
    exp = state_of None;
    ckpt_decisions = Hashtbl.create 1;
    loss = None;
    promoted = false;
    coord = Hashtbl.create 64;
    prep_seen = Hashtbl.create 64;
    prepared_commits = Vec.create ();
    bare_commits = Hashtbl.create 256;
  }

let tracker ?(check_crc = true) ?(keep_records = false) wal =
  { wal; check_crc; keep_records; f = fresh_fold wal; decoded = 0; rewound = 0 }

let defer_all f r =
  defer f.exp r;
  match f.loss with Some l -> defer l r | None -> ()

let fold_record ~keep_records f (r : Wal_record.t) =
  if keep_records then f.records <- r :: f.records;
  match r.payload with
  | Wal_record.Ckpt_end { snapshot } -> (
      (* The loss anchor skips the recovery checkpoint a promotion
         writes (see {!Before_promotion}). *)
      let after_promote = f.promoted in
      f.promoted <- false;
      match Checkpoint.of_json snapshot with
      | Error _ -> defer_all f r
      | Ok ck ->
          if after_promote then begin
            let l = match f.loss with Some l -> l | None -> f.exp in
            defer l r;
            f.loss <- Some l
          end
          else f.loss <- None;
          let anchor = Some (r.lsn, ck) in
          f.exp <- state_of anchor;
          let dec = Hashtbl.create 16 in
          List.iter (fun (gid, cts) -> Hashtbl.replace dec gid cts) ck.Checkpoint.decisions;
          f.ckpt_decisions <- dec)
  | payload ->
      (match payload with
      | Wal_record.Coord_commit { gid; cts; _ } -> Hashtbl.replace f.coord gid cts
      | Wal_record.Prepare { tid; coord; _ } -> Hashtbl.replace f.prep_seen tid coord
      | Wal_record.Txn_commit { tid; _ } -> (
          match Hashtbl.find_opt f.prep_seen tid with
          | Some coord -> Vec.push f.prepared_commits (r.lsn, tid, coord)
          | None -> Hashtbl.add f.bare_commits tid r.lsn)
      | Wal_record.Promote _ -> f.promoted <- true
      | _ -> ());
      defer_all f r

let advance t =
  if Wal.generation t.wal <> t.f.generation then begin
    t.rewound <- t.rewound + t.f.attempted;
    t.f <- fresh_fold t.wal
  end;
  let f = t.f in
  if not f.stuck then begin
    (* Scan forward and stop at the first frame that fails to parse or
       verify: everything beyond a torn/corrupt frame is untrustworthy
       even if it happens to checksum, because the device gave no
       ordering guarantee past the tear. A frame tagged for a different
       shard is treated the same way — each shard's log is its own LSN
       namespace, and an interleaved foreign frame means the write path
       crossed shards, which replay must refuse rather than absorb. *)
    let rec scan = function
      | [] -> ()
      | (_, repr) :: rest -> (
          t.decoded <- t.decoded + 1;
          f.attempted <- f.attempted + 1;
          match Wal_record.decode ~check_crc:t.check_crc repr with
          | Ok r when r.Wal_record.shard = f.own_shard ->
              f.cursor <- r.Wal_record.lsn;
              f.survivors <- f.survivors + 1;
              fold_record ~keep_records:t.keep_records f r;
              scan rest
          | Ok _ | Error _ -> f.stuck <- true)
    in
    scan (Wal.frames_from t.wal ~lsn:f.cursor)
  end

let state_at t = function
  | Last_checkpoint -> t.f.exp
  | Before_promotion -> Option.value t.f.loss ~default:t.f.exp

let checkpoint ?(anchor = Last_checkpoint) t = (state_at t anchor).anchor

let decision t ~gid =
  match Hashtbl.find_opt t.f.coord gid with
  | Some _ as d -> d
  | None -> Hashtbl.find_opt t.f.ckpt_decisions gid

let iter_prepared_commits t k =
  let f = t.f in
  (* A commit counts as prepared by the last Prepare before it or,
     failing one, by the last checkpoint's prepared table. *)
  let seeded =
    match f.exp.anchor with
    | None -> []
    | Some (_, ck) ->
        let seeds = Hashtbl.create 8 in
        List.iter (fun (tid, coord) -> Hashtbl.replace seeds tid coord) ck.Checkpoint.prepared;
        Hashtbl.fold
          (fun tid coord acc ->
            List.fold_left
              (fun acc lsn -> (lsn, tid, coord) :: acc)
              acc
              (Hashtbl.find_all f.bare_commits tid))
          seeds []
        |> List.sort compare
  in
  let n = Vec.length f.prepared_commits in
  let rec go i seeded =
    if i < n then begin
      let lsn, tid, coord = Vec.get f.prepared_commits i in
      match seeded with
      | (slsn, stid, scoord) :: rest when slsn < lsn ->
          k ~tid:stid ~coord:scoord;
          go i rest
      | _ ->
          k ~tid ~coord;
          go (i + 1) seeded
    end
    else List.iter (fun (_, tid, coord) -> k ~tid ~coord) seeded
  in
  go 0 seeded

let decoded t = t.decoded
let rewound t = t.rewound

(* ------------------------------------------------------------------ *)
(* Finishing a state: in-doubt resolution over a read-only view. *)

(* In-doubt resolution over a settled state, as an overlay: the running
   state is left untouched. *)
type overlay = {
  st : state;
  indoubt : (int * int) list; (* sorted *)
  resolved : (int, int) Hashtbl.t; (* tid -> cts *)
  resolved_commits : (int * int) list;
  rows_over : (int, Checkpoint.row) Hashtbl.t; (* rid -> row the resolution wrote *)
  floor_ts : int; (* largest timestamp seen, resolution included *)
}

let overlay ?resolve st =
  settle st;
  let max_ts = ref st.max_ts in
  let indoubt =
    Hashtbl.fold
      (fun tid coord acc -> if Hashtbl.mem st.live tid then (tid, coord) :: acc else acc)
      st.prepared []
    |> List.sort compare_pair
  in
  (* A transaction that prepared here but has no local outcome asks the
     coordinator. A durable Coord_commit means commit (apply the pending
     writes at its commit timestamp); no answer means presumed abort —
     the transaction stays a loser and the caller rolls it back with a
     CLR like any other. *)
  let resolved : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let rows_over : (int, Checkpoint.row) Hashtbl.t = Hashtbl.create 8 in
  let resolved_commits = ref [] in
  (match resolve with
  | None -> ()
  | Some lookup ->
      List.iter
        (fun (tid, coord) ->
          match lookup ~tid ~coord with
          | None -> ()
          | Some cts -> (
              if cts > !max_ts then max_ts := cts;
              resolved_commits := (tid, cts) :: !resolved_commits;
              Hashtbl.replace resolved tid cts;
              match Hashtbl.find_opt st.pending tid with
              | None -> ()
              | Some ws ->
                  List.iter
                    (fun (_, w) -> Hashtbl.replace rows_over w.Checkpoint.rid (commit_row tid cts w))
                    (List.rev !ws)))
        indoubt);
  { st; indoubt; resolved; resolved_commits = !resolved_commits; rows_over; floor_ts = !max_ts }

let fold_rows o f acc =
  let acc =
    Hashtbl.fold
      (fun rid r acc -> if Hashtbl.mem o.rows_over rid then acc else f r acc)
      o.st.rows acc
  in
  Hashtbl.fold (fun _ r acc -> f r acc) o.rows_over acc

let finish ~full t o =
  let st = o.st and resolved = o.resolved in
  let is_committed tid = Hashtbl.mem st.committed tid || Hashtbl.mem resolved tid in
  let committed_list =
    Hashtbl.fold
      (fun tid cts acc -> if Hashtbl.mem resolved tid then acc else (tid, cts) :: acc)
      st.committed []
  in
  let committed_list = Hashtbl.fold (fun tid cts acc -> (tid, cts) :: acc) resolved committed_list in
  (* Commit entries for the creators of recovered rows are part of the
     contract even when they predate the checkpoint window: write
     conflict checks on a recovered row look its creator up in the
     commit log. *)
  let committed_list =
    fold_rows o
      (fun (r : Checkpoint.row) acc ->
        if r.vs > 0 && not (is_committed r.vs) then (r.vs, r.cts) :: acc else acc)
      committed_list
  in
  let decisions () =
    let tbl = Hashtbl.create 64 in
    (match st.anchor with
    | Some (_, ck) -> List.iter (fun (gid, cts) -> Hashtbl.replace tbl gid cts) ck.Checkpoint.decisions
    | None -> ());
    (* Coordinator decisions come from the whole trustworthy prefix, not
       just the replay window: another shard's in-doubt participant may
       ask about a transaction whose decision predates this shard's
       last checkpoint (already forgotten here, still unresolved
       there). *)
    Hashtbl.iter (fun gid cts -> Hashtbl.replace tbl gid cts) t.f.coord;
    Hashtbl.fold (fun gid cts acc -> (gid, cts) :: acc) tbl [] |> List.sort compare_pair
  in
  ({
    committed = List.sort compare_pair committed_list;
    aborted =
      Hashtbl.fold (fun tid ats acc -> (tid, ats) :: acc) st.aborted [] |> List.sort compare_pair;
    losers =
      Hashtbl.fold (fun tid () acc -> if Hashtbl.mem resolved tid then acc else tid :: acc) st.live []
      |> List.sort Int.compare;
    rows =
      (if full then
         fold_rows o (fun r acc -> r :: acc) []
         |> List.sort (fun (a : Checkpoint.row) b -> compare a.rid b.rid)
       else []);
    segments =
      (if full then
         Hashtbl.fold
           (fun seg_id acc l ->
             {
               seg_id;
               cls = acc.sa_cls;
               hardened = acc.sa_hardened;
               versions = List.rev acc.sa_versions;
             }
             :: l)
           st.segs []
         |> List.sort (fun a b -> compare a.seg_id b.seg_id)
       else []);
    dead_segs = (if full then List.sort_uniq compare st.dead_segs else []);
    next_seg_id = st.next_seg_id;
    oracle_floor = o.floor_ts + 1;
    replayed = st.replayed;
    indoubt = o.indoubt;
    resolved_commits = List.sort compare_pair o.resolved_commits;
    decisions = (if full then decisions () else []);
  }
    : expectation)

let current ?(anchor = Last_checkpoint) ?(full = true) ?resolve t =
  finish ~full t (overlay ?resolve (state_at t anchor))

let commits ?(anchor = Last_checkpoint) ?resolve t =
  let o = overlay ?resolve (state_at t anchor) in
  (* Creators of recovered rows count as committed (see [finish]). *)
  let creators = Hashtbl.create 64 in
  fold_rows o
    (fun (r : Checkpoint.row) () -> if r.vs > 0 then Hashtbl.replace creators r.vs ())
    ();
  fun tid ->
    Hashtbl.mem o.st.committed tid || Hashtbl.mem o.resolved tid || Hashtbl.mem creators tid

(* ------------------------------------------------------------------ *)
(* One-shot analysis: a fresh tracker folded once. *)

type analysis = {
  records : Wal_record.t list;
  survivors : int;
  truncate_lsn : int;
  dropped : int;
  checkpoint : (int * Checkpoint.t) option;
  folded : tracker;
}

let analyze ?(check_crc = true) wal =
  let t = tracker ~check_crc ~keep_records:true wal in
  advance t;
  let f = t.f in
  {
    records = List.rev f.records;
    survivors = f.survivors;
    truncate_lsn = f.cursor;
    dropped = Wal.frame_count wal - f.survivors;
    checkpoint = f.exp.anchor;
    folded = t;
  }

let expect ?resolve analysis = current ?resolve analysis.folded
