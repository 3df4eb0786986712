(* Incremental log audits (DESIGN §4j): the per-shard trackers the log
   oracles keep for a whole run must return exactly the verdicts of a
   fresh analysis at every audit, whatever the devices went through in
   between, and must decode each frame once between generation resets. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Random operation sequences over a few shard logs *)

(* Small id spaces so that prepares, commits and decisions on different
   logs keep meeting. *)
let small = QCheck.Gen.int_range 1 10
let ts = QCheck.Gen.int_range 1 40

let ckpt_gen =
  let open QCheck.Gen in
  let pairs = list_size (int_bound 3) (pair small ts) in
  let* oracle_next = ts in
  let* committed = pairs in
  let* aborted = pairs in
  let* live = list_size (int_bound 2) small in
  let* rows =
    list_size (int_bound 3)
      (map
         (fun (rid, vs, cts) -> { Checkpoint.rid; value = rid * 7; vs; vs_time = 0; cts })
         (triple (int_bound 5) (int_bound 10) ts))
  in
  let* pending =
    list_size (int_bound 2)
      (map
         (fun (tid, rid) ->
           { Checkpoint.tid; writes = [ { Checkpoint.rid; value = tid; vs_time = 0 } ] })
         (pair small (int_bound 5)))
  in
  let* segments =
    list_size (int_bound 1)
      (map
         (fun (seg_id, hardened) ->
           {
             Checkpoint.seg_id;
             cls = "c";
             hardened;
             versions =
               [
                 {
                   Checkpoint.rid = 1;
                   vs = 1;
                   ve = 2;
                   vs_time = 0;
                   ve_time = 0;
                   bytes = 8;
                   value = 3;
                   lo = 1;
                   hi = 2;
                 };
               ];
           })
         (pair (int_bound 3) bool))
  in
  let* prepared = list_size (int_bound 2) (pair small (int_bound 3)) in
  let* decisions = pairs in
  return
    {
      Checkpoint.at = 0;
      oracle_next;
      live;
      committed;
      aborted;
      rows;
      pending;
      segments;
      next_seg_id = 4;
      prepared;
      decisions;
    }

let payload_gen : Wal_record.payload QCheck.Gen.t =
  let open QCheck.Gen in
  let shards = list_size (int_range 1 3) (int_bound 2) in
  frequency
    [
      (2, map (fun tid -> Wal_record.Txn_begin { tid }) small);
      (4, map2 (fun tid cts -> Wal_record.Txn_commit { tid; cts }) small ts);
      (2, map2 (fun tid ats -> Wal_record.Txn_abort { tid; ats }) small ts);
      ( 2,
        map3
          (fun tid rid value -> Wal_record.Version_insert { tid; rid; value })
          small (int_bound 5) (int_bound 99) );
      ( 1,
        map2
          (fun seg_id rid ->
            Wal_record.Relocate
              {
                rid;
                vs = 1;
                ve = 3;
                vs_time = 0;
                ve_time = 0;
                bytes = 8;
                value = rid;
                seg_id;
                cls = "c";
                lo = 1;
                hi = 3;
              })
          (int_bound 3) (int_bound 5) );
      (1, map (fun seg_id -> Wal_record.Seg_harden { seg_id }) (int_bound 3));
      (1, map (fun seg_id -> Wal_record.Seg_drop { seg_id }) (int_bound 3));
      (1, map (fun seg_id -> Wal_record.Seg_cut { seg_id }) (int_bound 3));
      (1, return Wal_record.Ckpt_begin);
      (2, map (fun ck -> Wal_record.Ckpt_end { snapshot = Checkpoint.to_json ck }) ckpt_gen);
      (* A snapshot that does not parse: no checkpoint at all. *)
      (1, return (Wal_record.Ckpt_end { snapshot = Jsonx.Obj [] }));
      ( 4,
        map3 (fun tid coord shards -> Wal_record.Prepare { tid; coord; shards }) small
          (int_bound 3) shards );
      (4, map3 (fun gid cts shards -> Wal_record.Coord_commit { gid; cts; shards }) small ts shards);
      (1, map (fun gid -> Wal_record.Coord_abort { gid }) small);
      (1, map2 (fun gid shard -> Wal_record.Ack { gid; shard }) small (int_bound 2));
      (1, map (fun gid -> Wal_record.Forget { gid }) small);
      (2, map2 (fun epoch node -> Wal_record.Promote { epoch; node }) (int_bound 5) (int_bound 2));
      ( 1,
        map3 (fun epoch node upto -> Wal_record.Rep_ack { epoch; node; upto }) (int_bound 5)
          (int_bound 2) (int_bound 40) );
    ]

type op =
  | Log of int * Wal_record.payload
  | Ship of int * Wal_record.payload * int (* lsn offset from the next expected *)
  | Mirror of int * int (* receive the other device's frame at our next LSN *)
  | Inject of int * Wal_record.payload option (* bad-crc frame, or garbage *)
  | Crash of int * int
  | Truncate of int * int
  | Adopt of int * int
  | Corrupt of int * int
  | Set_shard of int * int
  | Sweep of (int * int * int list) list (* the acked ledger *)

let op_gen =
  let open QCheck.Gen in
  let dev = int_bound 2 in
  let acked = list_size (int_bound 4) (triple small ts (list_size (int_range 1 2) (int_bound 2))) in
  frequency
    [
      (24, map2 (fun w p -> Log (w, p)) dev payload_gen);
      (3, map3 (fun w p d -> Ship (w, p, d)) dev payload_gen (int_range (-1) 1));
      (2, map2 (fun w o -> Mirror (w, o)) dev dev);
      (1, map2 (fun w p -> Inject (w, p)) dev (opt payload_gen));
      (1, map2 (fun w k -> Crash (w, k)) dev (int_bound 30));
      (1, map2 (fun w k -> Truncate (w, k)) dev (int_bound 30));
      (1, map2 (fun w o -> Adopt (w, o)) dev dev);
      (1, map2 (fun w k -> Corrupt (w, k)) dev (int_bound 30));
      (1, map2 (fun w s -> Set_shard (w, s)) dev (int_bound 2));
      (6, map (fun a -> Sweep a) acked);
    ]

let print_op = function
  | Log (w, p) -> Printf.sprintf "log %d %s" w (Wal_record.kind_name p)
  | Ship (w, p, d) -> Printf.sprintf "ship %d %s %+d" w (Wal_record.kind_name p) d
  | Mirror (w, o) -> Printf.sprintf "mirror %d<-%d" w o
  | Inject (w, p) -> Printf.sprintf "inject %d %s" w (if p = None then "garbage" else "bad-crc")
  | Crash (w, k) -> Printf.sprintf "crash %d keep %d" w k
  | Truncate (w, k) -> Printf.sprintf "truncate %d to %d" w k
  | Adopt (w, o) -> Printf.sprintf "adopt %d<-%d" w o
  | Corrupt (w, k) -> Printf.sprintf "corrupt %d at %d" w k
  | Set_shard (w, s) -> Printf.sprintf "set_shard %d %d" w s
  | Sweep a -> Printf.sprintf "sweep (%d acked)" (List.length a)

let render vs = List.map (fun { Invariant.invariant; detail } -> invariant ^ ": " ^ detail) vs

(* Every verdict and expectation the incremental trackers give must match
   a fresh tracker folded once over the same devices. *)
let sweep_agrees ~clog logs wals acked =
  let fresh () = Invariant.track_logs wals in
  let atomicity l = render (Invariant.check_cross_shard_atomicity ?clog l) in
  (* The ledger leaves out what the oracle says it may. *)
  let acked ~since = List.filter (fun (_, cts, _) -> cts >= since) acked in
  let loss l = render (Invariant.check_no_committed_loss ~acked l) in
  let verdicts_agree = atomicity logs = atomicity (fresh ()) && loss logs = loss (fresh ()) in
  let folded = fresh () in
  List.iter (fun (_, t) -> Wal_recovery.advance t) folded;
  let same_exp anchor =
    List.for_all2
      (fun (_, t) (_, f) ->
        let e = Wal_recovery.current ~anchor t in
        let committed = Wal_recovery.commits ~anchor t in
        e = Wal_recovery.current ~anchor f
        && Wal_recovery.checkpoint ~anchor t = Wal_recovery.checkpoint ~anchor f
        && List.for_all
             (fun tid -> committed tid = List.mem_assoc tid e.Wal_recovery.committed)
             (List.init 45 Fun.id))
      logs folded
  in
  verdicts_agree
  && same_exp Wal_recovery.Last_checkpoint
  && same_exp Wal_recovery.Before_promotion
  && List.for_all2
       (fun (_, t) (_, w) -> Wal_recovery.current t = Wal_recovery.expect (Wal_recovery.analyze w))
       logs wals

let run_ops (n, with_clog, ops) =
  let wals =
    List.init n (fun sid ->
        let w = Wal.create ~shard:sid () in
        Wal.enable_durability w;
        (sid, w))
  in
  let dev i = List.assoc (i mod n) wals in
  let clog =
    if with_clog then begin
      let c = Commit_log.create () in
      List.iter
        (fun (tid, cts) -> Commit_log.record c ~tid (Commit_log.Committed_at cts))
        [ (3, 5); (9, 12); (25, 30) ];
      Some c
    end
    else None
  in
  let logs = Invariant.track_logs wals in
  let frame w payload ~lsn =
    Wal_record.encode { Wal_record.lsn; at = 0; shard = Wal.shard w; payload }
  in
  List.for_all
    (function
      | Log (w, p) ->
          ignore (Wal.log (dev w) p);
          true
      | Ship (w, p, d) ->
          let w = dev w in
          let lsn = Wal.next_lsn w + d in
          ignore (Wal.receive w ~lsn ~repr:(frame w p ~lsn));
          true
      | Mirror (w, o) ->
          let w = dev w and o = dev o in
          (match Wal.frames_from o ~lsn:(Wal.next_lsn w - 1) with
          | (lsn, repr) :: _ when lsn = Wal.next_lsn w -> ignore (Wal.receive w ~lsn ~repr)
          | _ -> ());
          true
      | Inject (w, p) ->
          let w = dev w in
          (match p with
          | None -> ignore (Wal.inject_raw w "torn")
          | Some payload ->
              ignore
                (Wal.inject_raw w
                   (Wal_record.encode_with_bad_crc
                      { Wal_record.lsn = Wal.next_lsn w; at = 0; shard = Wal.shard w; payload })));
          true
      | Crash (w, k) ->
          Wal.crash (dev w) ~keep_lsn:k;
          true
      | Truncate (w, k) ->
          Wal.truncate_to (dev w) ~lsn:k;
          true
      | Adopt (w, o) ->
          if w mod n <> o mod n then Wal.adopt (dev w) ~src:(dev o);
          true
      | Corrupt (w, k) ->
          ignore
            (Wal.corrupt_frame (dev w) ~lsn:k (fun s ->
                 let b = Bytes.of_string s in
                 let i = Bytes.length b / 2 in
                 Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
                 Bytes.to_string b));
          true
      | Set_shard (w, s) ->
          Wal.set_shard (dev w) (s mod n);
          true
      | Sweep acked -> sweep_agrees ~clog logs wals acked)
    (ops @ [ Sweep [ (1, 1, [ 0 ]) ] ])

let qcheck_tracker_matches_fresh =
  QCheck.Test.make ~name:"incremental audit verdicts = fresh analysis at every sweep" ~count:400
    QCheck.(
      make
        ~print:(fun (n, c, ops) ->
          Printf.sprintf "%d logs%s: %s" n
            (if c then " +clog" else "")
            (String.concat "; " (List.map print_op ops)))
        Gen.(triple (int_range 2 3) bool (list_size (int_range 5 60) op_gen)))
    run_ops

(* Each mutator that rewrites or drops frames starts a new generation;
   appends do not. *)
let test_generation_bumps () =
  let w = Wal.create () and src = Wal.create ~shard:1 () in
  Wal.enable_durability w;
  Wal.enable_durability src;
  let bumps what f =
    let g = Wal.generation w in
    f ();
    (what, Wal.generation w - g)
  in
  let p = Wal_record.Txn_begin { tid = 1 } in
  (* In order: list elements are evaluated right to left. *)
  let steps =
    [
      ("log", fun () -> for _ = 1 to 5 do ignore (Wal.log w p) done);
      ("inject_raw", fun () -> ignore (Wal.inject_raw w "torn"));
      ("receive", fun () -> ignore (Wal.receive w ~lsn:(Wal.next_lsn w) ~repr:"x"));
      ("fsync", fun () -> ignore (Wal.fsync w ()));
      ("crash", fun () -> Wal.crash w ~keep_lsn:4);
      ("truncate_to", fun () -> Wal.truncate_to w ~lsn:3);
      ("corrupt_frame", fun () -> ignore (Wal.corrupt_frame w ~lsn:1 (fun s -> s ^ "!")));
      ("corrupt_frame miss", fun () -> ignore (Wal.corrupt_frame w ~lsn:99 Fun.id));
      ("adopt", fun () -> Wal.adopt w ~src);
      ("set_shard", fun () -> Wal.set_shard w 0);
    ]
  in
  let moved = List.map (fun (what, f) -> bumps what f) steps in
  Alcotest.(check (list (pair string int)))
    "generation moves exactly on rewrites"
    [
      ("log", 0);
      ("inject_raw", 0);
      ("receive", 0);
      ("fsync", 0);
      ("crash", 1);
      ("truncate_to", 1);
      ("corrupt_frame", 1);
      ("corrupt_frame miss", 0);
      ("adopt", 1);
      ("set_shard", 1);
    ]
    moved

(* -------------------------------------------------------------------- *)
(* Audit cost: O(new frames) between resets, checked without timing *)

let test_audit_cost_linear () =
  let base =
    {
      Exp_config.default with
      Exp_config.name = "audit-cost";
      seed = 21;
      duration_s = 0.6;
      workers = 4;
      reads_per_txn = 2;
      writes_per_txn = 2;
      schema = { Schema.default with Schema.tables = 2; rows_per_table = 100; record_bytes = 64 };
      llts = [ { Exp_config.start_s = 0.05; duration_s = 0.15; count = 1 } ];
      gc_period = Clock.ms 5;
      sample_period_s = 0.05;
      ckpt_period_s = 0.1;
    }
  in
  let cfg =
    {
      (Shard_runner.default ~shards:2 base) with
      Shard_runner.cross_pct = 40;
      replicas = 2;
      kill_steps = [ 2_000; 9_000 ];
    }
  in
  let res = Shard_runner.run ~mode:Shard_runner.Sim cfg in
  check_int "clean" 0 (Fault_report.violation_count res.Shard_runner.report);
  let checks = Fault_report.checks_run res.Shard_runner.report in
  check_bool (Printf.sprintf "at least 10 sweeps (%d)" checks) true (checks >= 10);
  let rd =
    match res.Shard_runner.digest.Shard_runner.d_repl with
    | Some rd -> rd
    | None -> Alcotest.fail "replicated digest block missing"
  in
  check_bool "kills landed" true (rd.Shard_runner.rd_kills >= 1);
  check_bool "a promotion reset a log" true (rd.Shard_runner.rd_promotions >= 1);
  let a = res.Shard_runner.audit in
  let decoded = a.Shard_runner.frames_decoded and rewound = a.Shard_runner.frames_rewound in
  check_bool "final logs non-trivial" true (a.Shard_runner.final_frames > 1000);
  check_bool "some logs re-read after a reset" true (rewound > 0);
  (* Between resets every audit decodes only the frames appended since
     the previous one: once each, plus whatever a reset made it re-read. *)
  check_bool
    (Printf.sprintf "decoded %d <= final %d + rewound %d" decoded a.Shard_runner.final_frames
       rewound)
    true
    (decoded <= a.Shard_runner.final_frames + rewound);
  (* Re-analysing from LSN 1 at every audit decodes the whole log each
     time: with >= 10 audits that is several times more. *)
  check_bool
    (Printf.sprintf "decoded %d * 4 < batch %d" decoded a.Shard_runner.batch_frames)
    true
    (decoded * 4 < a.Shard_runner.batch_frames)

let suites =
  [
    ( "audit.incremental",
      [
        Alcotest.test_case "generation bumps" `Quick test_generation_bumps;
        QCheck_alcotest.to_alcotest qcheck_tracker_matches_fresh;
        Alcotest.test_case "audit cost linear in new frames" `Quick test_audit_cost_linear;
      ] );
  ]
