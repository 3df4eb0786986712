(* Crash-recovery tests: WAL record framing and CRC rejection, the
   durable-mode log semantics (LSNs, fsync frontier, power loss), the
   ["wal.fsync"] fail-point's conservative accounting, fuzzy
   checkpoints spanned by in-flight transactions, crash-at-every-LSN
   recovery through the real engine restart path, the torn-tail
   sabotage the honest invariants must catch, and the golden-metrics
   compatibility of non-crash runs. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Record framing *)

let sample_snapshot = Jsonx.Obj [ ("oracle_next", Jsonx.Int 17); ("live", Jsonx.Arr []) ]

let sample_payloads : Wal_record.payload list =
  [
    Wal_record.Txn_begin { tid = 7 };
    Wal_record.Txn_commit { tid = 7; cts = 9 };
    Wal_record.Txn_abort { tid = 8; ats = 10 };
    Wal_record.Version_insert { tid = 7; rid = 3; value = 42 };
    Wal_record.Relocate
      {
        rid = 3;
        vs = 7;
        ve = 11;
        vs_time = 100;
        ve_time = 200;
        bytes = 64;
        value = 5;
        seg_id = 2;
        cls = "rec";
        lo = 9;
        hi = 12;
      };
    Wal_record.Seg_harden { seg_id = 2 };
    Wal_record.Seg_drop { seg_id = 3 };
    Wal_record.Seg_cut { seg_id = 2 };
    Wal_record.Ckpt_begin;
    Wal_record.Ckpt_end { snapshot = sample_snapshot };
  ]

let test_record_roundtrip () =
  List.iteri
    (fun i payload ->
      let r = { Wal_record.lsn = 10 + i; at = Clock.ms (1 + i); shard = 0; payload } in
      match Wal_record.decode (Wal_record.encode r) with
      | Ok r' ->
          check_bool (Printf.sprintf "roundtrip %s" (Wal_record.kind_name payload)) true (r = r')
      | Error e -> Alcotest.failf "roundtrip %s: %s" (Wal_record.kind_name payload) e)
    sample_payloads

let test_record_crc_rejects_flip () =
  let r =
    { Wal_record.lsn = 3; at = Clock.ms 2; shard = 0; payload = Wal_record.Version_insert { tid = 5; rid = 1; value = 42 } }
  in
  let frame = Wal_record.encode r in
  (* [value] is the last field of a [Version_insert] frame, and 42
     zig-zags to the single varint byte 84: flipping bit 1 of the last
     byte makes it 86, i.e. 43 — still a well-formed body, but no longer
     the one the checksum covers. *)
  let idx = String.length frame - 1 in
  check_int "value byte holds zig-zag 42" 84 (Char.code frame.[idx]);
  let corrupt =
    String.mapi (fun i c -> if i = idx then Char.chr (Char.code c lxor 0x02) else c) frame
  in
  (match Wal_record.decode corrupt with
  | Ok _ -> Alcotest.fail "corrupt frame must be rejected"
  | Error _ -> ());
  (* The sabotage knob replays it blindly, seeing the flipped value. *)
  match Wal_record.decode ~check_crc:false corrupt with
  | Ok { Wal_record.payload = Wal_record.Version_insert { value; _ }; _ } ->
      check_int "sabotage decode sees the flip" 43 value
  | Ok _ -> Alcotest.fail "unexpected payload"
  | Error e -> Alcotest.failf "check_crc:false must accept the frame: %s" e

let test_record_bad_crc_encoder () =
  let r = { Wal_record.lsn = 4; at = 0; shard = 0; payload = Wal_record.Txn_commit { tid = 9; cts = 12 } } in
  let frame = Wal_record.encode_with_bad_crc r in
  (match Wal_record.decode frame with
  | Ok _ -> Alcotest.fail "bad-crc frame must be rejected"
  | Error _ -> ());
  match Wal_record.decode ~check_crc:false frame with
  | Ok r' -> check_bool "payload intact under sabotage" true (r'.Wal_record.payload = r.Wal_record.payload)
  | Error e -> Alcotest.failf "check_crc:false must accept: %s" e

(* Random records of every kind, with field values spanning the whole
   int range so every varint width (and negative zig-zag) is hit. *)
let record_gen =
  let open QCheck.Gen in
  let i = oneof [ small_signed_int; int; oneofl [ 0; -1; max_int; min_int ] ] in
  let str = string_size ~gen:printable (int_bound 12) in
  let ints = list_size (int_bound 6) i in
  let snapshot =
    map3
      (fun n xs tag ->
        Jsonx.Obj
          [
            ("oracle_next", Jsonx.Int n);
            ("live", Jsonx.Arr (List.map (fun x -> Jsonx.Int x) xs));
            ("tag", Jsonx.Str tag);
          ])
      i ints str
  in
  let payload =
    oneof
      [
        map (fun tid -> Wal_record.Txn_begin { tid }) i;
        map2 (fun tid cts -> Wal_record.Txn_commit { tid; cts }) i i;
        map2 (fun tid ats -> Wal_record.Txn_abort { tid; ats }) i i;
        map3 (fun tid rid value -> Wal_record.Version_insert { tid; rid; value }) i i i;
        map3
          (fun (rid, vs, ve, vs_time) (ve_time, bytes, value, seg_id) (cls, lo, hi) ->
            Wal_record.Relocate
              { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi })
          (quad i i i i) (quad i i i i) (triple str i i);
        map (fun seg_id -> Wal_record.Seg_harden { seg_id }) i;
        map (fun seg_id -> Wal_record.Seg_drop { seg_id }) i;
        map (fun seg_id -> Wal_record.Seg_cut { seg_id }) i;
        return Wal_record.Ckpt_begin;
        map (fun snapshot -> Wal_record.Ckpt_end { snapshot }) snapshot;
        map3 (fun tid coord shards -> Wal_record.Prepare { tid; coord; shards }) i i ints;
        map3 (fun gid cts shards -> Wal_record.Coord_commit { gid; cts; shards }) i i ints;
        map (fun gid -> Wal_record.Coord_abort { gid }) i;
        map2 (fun gid shard -> Wal_record.Ack { gid; shard }) i i;
        map (fun gid -> Wal_record.Forget { gid }) i;
        map2 (fun epoch node -> Wal_record.Promote { epoch; node }) i i;
        map3 (fun epoch node upto -> Wal_record.Rep_ack { epoch; node; upto }) i i i;
      ]
  in
  map3 (fun (lsn, at) shard payload -> { Wal_record.lsn; at; shard; payload }) (pair i i) i payload

let record_arb =
  QCheck.make record_gen ~print:(fun r ->
      Printf.sprintf "%s lsn=%d: %S" (Wal_record.kind_name r.Wal_record.payload) r.Wal_record.lsn
        (Wal_record.encode r))

let rejected ?check_crc frame = Result.is_error (Wal_record.decode ?check_crc frame)

let qcheck_codec =
  QCheck.Test.make ~name:"codec: roundtrip, flips, prefixes, trailing, bad crc" ~count:300
    record_arb
    (fun r ->
      let frame = Wal_record.encode r in
      let n = String.length frame in
      let flip i bit =
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl bit)) else c) frame
      in
      let every_flip_rejected =
        List.for_all
          (fun i -> List.for_all (fun bit -> rejected (flip i bit)) [ 0; 1; 2; 3; 4; 5; 6; 7 ])
          (List.init n Fun.id)
      in
      let every_prefix_rejected =
        List.for_all
          (fun k ->
            let torn = String.sub frame 0 k in
            rejected torn && rejected ~check_crc:false torn)
          (List.init n Fun.id)
      in
      let bad = Wal_record.encode_with_bad_crc r in
      Wal_record.decode frame = Ok r
      && every_flip_rejected && every_prefix_rejected
      && rejected ~check_crc:false (frame ^ "\000")
      && rejected bad
      && Wal_record.decode ~check_crc:false bad = Ok r)

(* Arbitrary bytes, or a valid frame's head followed by junk: either
   way decode answers with a result, under both checksum modes. *)
let qcheck_decode_total =
  QCheck.Test.make ~name:"codec: decode never raises" ~count:1000
    QCheck.(triple record_arb (int_bound 64) string)
    (fun (r, k, junk) ->
      let frame = Wal_record.encode r in
      let input = String.sub frame 0 (min k (String.length frame)) ^ junk in
      let total check_crc =
        match Wal_record.decode ~check_crc input with Ok _ | Error _ -> true | exception _ -> false
      in
      total true && total false)

(* -------------------------------------------------------------------- *)
(* Durable-mode log semantics *)

let test_non_durable_log_is_noop () =
  let w = Wal.create () in
  check_bool "not durable" false (Wal.is_durable w);
  check_bool "log returns None" true (Wal.log w (Wal_record.Txn_begin { tid = 1 }) = None);
  check_int "no frames" 0 (List.length (Wal.frames w));
  check_int "no records" 0 (Wal.records w);
  check_bool "fsync trivially true" true (Wal.fsync w ())

let test_durable_lsns_and_crash () =
  let w = Wal.create () in
  Wal.enable_durability w;
  let lsn i = Wal.log w (Wal_record.Txn_begin { tid = i }) in
  for i = 1 to 5 do
    check_bool "sequential lsns" true (lsn i = Some i)
  done;
  check_int "max_lsn" 5 (Wal.max_lsn w);
  check_int "nothing flushed yet" 0 (Wal.flushed_lsn w);
  check_bool "fsync ok" true (Wal.fsync w ());
  check_int "frontier advanced" 5 (Wal.flushed_lsn w);
  ignore (lsn 6);
  ignore (lsn 7);
  (* Power loss: unflushed tail evaporates, LSNs are never reused. *)
  Wal.crash w ~keep_lsn:(Wal.flushed_lsn w);
  check_int "tail dropped" 5 (Wal.max_lsn w);
  check_int "lsns not reused" 8 (Wal.next_lsn w);
  check_int "crash counted" 1 (Wal.crashes w)

let test_fsync_failpoint_conservative () =
  Failpoint.with_scope (fun () ->
      let w = Wal.create () in
      Wal.enable_durability w;
      ignore (Wal.log w (Wal_record.Txn_begin { tid = 1 }));
      let errors_before = Wal.errors w in
      Failpoint.arm_fail_n "wal.fsync" 1;
      check_bool "failed fsync reports false" false (Wal.fsync w ());
      check_int "frontier not advanced" 0 (Wal.flushed_lsn w);
      check_int "failure counted into errors" (errors_before + 1) (Wal.errors w);
      check_int "failure counted" 1 (Wal.fsync_failures w);
      check_bool "next fsync passes" true (Wal.fsync w ());
      check_int "frontier catches up" (Wal.max_lsn w) (Wal.flushed_lsn w))

(* [Wal.frames_from] binary-searches on the ascending-LSN invariant;
   it must agree with the plain linear filter on every log the mutators
   can build. Two devices so [adopt] has a real source. *)
type wal_op =
  | Log
  | Crash of int
  | Truncate of int
  | Inject
  | Receive of int
  | Adopt

let wal_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (6, return Log);
      (1, map (fun k -> Crash k) (int_bound 40));
      (1, map (fun k -> Truncate k) (int_bound 40));
      (1, return Inject);
      (3, map (fun d -> Receive d) (int_range (-1) 1));
      (1, return Adopt);
    ]

let qcheck_frames_from =
  QCheck.Test.make ~name:"frames_from = linear filter under every mutator" ~count:300
    QCheck.(
      make
        ~print:
          (Print.list (function
            | Log -> "log"
            | Crash k -> Printf.sprintf "crash %d" k
            | Truncate k -> Printf.sprintf "truncate %d" k
            | Inject -> "inject"
            | Receive d -> Printf.sprintf "receive %+d" d
            | Adopt -> "adopt"))
        Gen.(list_size (int_bound 60) wal_op_gen))
    (fun ops ->
      let devs = Array.init 2 (fun _ -> let w = Wal.create () in Wal.enable_durability w; w) in
      List.iteri
        (fun i op ->
          let w = devs.(i mod 2) and other = devs.((i + 1) mod 2) in
          match op with
          | Log -> ignore (Wal.log w (Wal_record.Txn_begin { tid = i }))
          | Crash k -> Wal.crash w ~keep_lsn:k
          | Truncate k -> Wal.truncate_to w ~lsn:k
          | Inject -> ignore (Wal.inject_raw w "torn")
          | Receive d -> ignore (Wal.receive w ~lsn:(Wal.next_lsn w + d) ~repr:"shipped")
          | Adopt -> Wal.adopt w ~src:other)
        ops;
      Array.for_all
        (fun w ->
          let all = Wal.frames w in
          List.for_all
            (fun k -> Wal.frames_from w ~lsn:k = List.filter (fun (lsn, _) -> lsn > k) all)
            (List.init (Wal.next_lsn w + 3) (fun k -> k - 1)))
        devs)

(* -------------------------------------------------------------------- *)
(* Engine-level fixtures *)

let tiny_schema = { Schema.default with Schema.tables = 2; rows_per_table = 20; record_bytes = 64 }

let durable_engine ?(skip_tail_check = false) () =
  let cfg =
    { State.default_config with State.durable_wal = true; recovery_skip_tail_check = skip_tail_check }
  in
  Siro_engine.create ~driver_config:cfg ~flavor:`Pg tiny_schema

let wal_of eng =
  let st : State.t = Siro_engine.driver_exn eng in
  match st.State.wal with Some w -> w | None -> Alcotest.fail "durable engine has no wal"

(* A deterministic mini-history: [n] committed single-write txns, then
   [losers] left in flight (their begins carried past the durability
   frontier by the last commit's fsync as long as a commit follows). *)
let mini_history ?(n = 8) ?(losers = 2) eng =
  let now = ref (Clock.ms 1) in
  let tick () =
    now := !now + Clock.us 200;
    !now
  in
  let records = Schema.records tiny_schema in
  let pending =
    List.init losers (fun i ->
        let txn, _ = eng.Engine.begin_txn ~now:(tick ()) in
        (match eng.Engine.write txn ~rid:((i * 7) mod records) ~payload:(-1) ~now:(tick ()) with
        | Engine.Committed_path _ | Engine.Conflict _ -> ());
        txn)
  in
  for i = 1 to n do
    let txn, _ = eng.Engine.begin_txn ~now:(tick ()) in
    (match eng.Engine.write txn ~rid:(i mod records) ~payload:(100 + i) ~now:(tick ()) with
    | Engine.Committed_path _ | Engine.Conflict _ -> ());
    ignore (eng.Engine.commit txn ~now:(tick ()))
  done;
  (pending, !now)

let restart_of eng =
  match eng.Engine.restart with Some f -> f | None -> Alcotest.fail "no restart closure"

let no_violations name vs =
  check_bool name true
    (match vs with
    | [] -> true
    | { Invariant.invariant; detail } :: _ ->
        Printf.printf "unexpected violation [%s] %s\n" invariant detail;
        false)

(* -------------------------------------------------------------------- *)
(* Fuzzy checkpoint spanned by an in-flight transaction *)

let test_checkpoint_spanning_commit_replays () =
  let eng = durable_engine () in
  let now = ref (Clock.ms 1) in
  let tick () =
    now := !now + Clock.us 100;
    !now
  in
  let spanner, _ = eng.Engine.begin_txn ~now:(tick ()) in
  (match eng.Engine.write spanner ~rid:1 ~payload:111 ~now:(tick ()) with
  | Engine.Committed_path _ -> ()
  | Engine.Conflict _ -> Alcotest.fail "unexpected conflict");
  (* Checkpoint while the txn is in flight: its write must travel in the
     snapshot's pending set so the post-checkpoint commit suffices. *)
  (match eng.Engine.checkpoint with
  | Some ckpt -> ckpt ~now:(tick ())
  | None -> Alcotest.fail "durable engine has no checkpoint closure");
  ignore (eng.Engine.commit spanner ~now:(tick ()));
  let other, _ = eng.Engine.begin_txn ~now:(tick ()) in
  (match eng.Engine.write other ~rid:2 ~payload:222 ~now:(tick ()) with
  | Engine.Committed_path _ | Engine.Conflict _ -> ());
  ignore (eng.Engine.commit other ~now:(tick ()));
  let wal = wal_of eng in
  Wal.crash wal ~keep_lsn:(Wal.flushed_lsn wal);
  let info = restart_of eng ~now:(tick ()) in
  check_bool "replayed something past the checkpoint" true (info.Engine.replayed_records > 0);
  no_violations "post-recovery invariants" (Invariant.check_post_recovery (Siro_engine.driver_exn eng));
  let probe, _ = eng.Engine.begin_txn ~now:(tick ()) in
  let v1, _ = eng.Engine.read probe ~rid:1 ~now:(tick ()) in
  let v2, _ = eng.Engine.read probe ~rid:2 ~now:(tick ()) in
  check_int "spanning txn's write durable" 111 v1;
  check_int "post-checkpoint txn durable" 222 v2

(* -------------------------------------------------------------------- *)
(* Crash at every LSN of a short history *)

let qcheck_crash_at_every_lsn =
  QCheck.Test.make ~name:"crash at every WAL LSN recovers with clean invariants" ~count:3
    QCheck.(make Gen.(0 -- 1000))
    (fun seed ->
      let n = 4 + (seed mod 5) in
      let max_lsn =
        let eng = durable_engine () in
        ignore (mini_history ~n eng);
        Wal.max_lsn (wal_of eng)
      in
      let ok = ref true in
      for lsn = Wal.bootstrap_lsn to max_lsn do
        let eng = durable_engine () in
        let _, last = mini_history ~n eng in
        let wal = wal_of eng in
        Wal.crash wal ~keep_lsn:lsn;
        ignore (restart_of eng ~now:(last + Clock.ms 1));
        match Invariant.check_post_recovery (Siro_engine.driver_exn eng) with
        | [] -> ()
        | { Invariant.invariant; detail } :: _ ->
            Printf.printf "crash at lsn %d: [%s] %s\n" lsn invariant detail;
            ok := false
      done;
      !ok)

(* -------------------------------------------------------------------- *)
(* Torn-tail sabotage: a skipped tail check must be caught *)

let torn_tail_frame wal =
  let exp = Wal_recovery.expect (Wal_recovery.analyze ~check_crc:true wal) in
  let tid = exp.Wal_recovery.oracle_floor + 999983 in
  Wal_record.encode_with_bad_crc
    {
      Wal_record.lsn = Wal.next_lsn wal;
      at = 0;
      shard = Wal.shard wal;
      payload = Wal_record.Txn_commit { tid; cts = tid + 1 };
    }

let test_honest_restart_truncates_torn_tail () =
  let eng = durable_engine () in
  let _, last = mini_history eng in
  let wal = wal_of eng in
  Wal.crash wal ~keep_lsn:(Wal.flushed_lsn wal);
  ignore (Wal.inject_raw wal (torn_tail_frame wal));
  let info = restart_of eng ~now:(last + Clock.ms 1) in
  check_bool "torn frame refused" true (info.Engine.truncated_frames >= 1);
  no_violations "honest recovery is clean" (Invariant.check_post_recovery (Siro_engine.driver_exn eng))

let test_skipped_tail_check_is_caught () =
  let eng = durable_engine ~skip_tail_check:true () in
  let _, last = mini_history eng in
  let wal = wal_of eng in
  Wal.crash wal ~keep_lsn:(Wal.flushed_lsn wal);
  ignore (Wal.inject_raw wal (torn_tail_frame wal));
  ignore (restart_of eng ~now:(last + Clock.ms 1));
  (* The sabotaged restart replayed a corrupt commit the honest oracle
     refuses; the post-recovery invariants must flag the divergence. *)
  check_bool "sabotaged recovery flagged" true
    (Invariant.check_post_recovery (Siro_engine.driver_exn eng) <> [])

(* -------------------------------------------------------------------- *)
(* Non-crash runs: durability must be workload-invisible, and the
   canonical sim scenario must still match the committed golden. *)

let runner_cfg =
  {
    Exp_config.default with
    Exp_config.name = "recovery-test";
    seed = 23;
    duration_s = 0.4;
    workers = 4;
    reads_per_txn = 2;
    writes_per_txn = 1;
    schema = { Schema.default with Schema.tables = 2; rows_per_table = 50; record_bytes = 64 };
    llts = [ { Exp_config.start_s = 0.05; duration_s = 0.2; count = 1 } ];
    sample_period_s = 0.1;
    gc_period = Clock.ms 5;
  }

let comparable (r : Runner.result) =
  ( r.Runner.commits,
    r.Runner.conflicts,
    r.Runner.llt_reads,
    r.Runner.throughput,
    r.Runner.version_space,
    r.Runner.max_chain,
    r.Runner.chain_cdf,
    Histogram.cdf r.Runner.latency_us )

let test_durability_is_workload_invisible () =
  let bare =
    Runner.run ~engine:(fun s -> Siro_engine.create ~flavor:`Pg s) runner_cfg
  in
  let durable =
    Runner.run
      ~engine:(fun s ->
        Siro_engine.create
          ~driver_config:{ State.default_config with State.durable_wal = true }
          ~flavor:`Pg s)
      runner_cfg
  in
  check_bool "durable run, no crash plan: workload bit-identical" true
    (comparable bare = comparable durable);
  check_int "no crashes without a plan" 0 durable.Runner.crashes;
  check_bool "no recoveries" true (durable.Runner.recoveries = [])

let test_golden_metrics_unchanged () =
  (* The CI golden scenario: vdriver_sim run -e pg-vdriver -d 2 --llts 2
     --seed 42 (48x1000 schema, 16 workers, uniform access, LLT group at
     5 s — past the horizon, so it never starts). The metrics export
     must stay byte-identical to test/golden/obs_metrics.json. *)
  let cfg =
    {
      Exp_config.default with
      Exp_config.name = "pg-vdriver";
      seed = 42;
      duration_s = 2.;
      workers = 16;
      schema = { Schema.default with Schema.tables = 48; rows_per_table = 1000; record_bytes = 256 };
      phases = [ { Exp_config.at_s = 0.; pattern = Access.Uniform } ];
      llts = [ { Exp_config.start_s = 5.; duration_s = 10.; count = 2 } ];
    }
  in
  let reg = Metrics.create () in
  ignore
    (Metrics.with_registry reg (fun () ->
         Runner.run
           ~engine:(fun s -> Siro_engine.create ~driver_config:State.default_config ~flavor:`Pg s)
           cfg));
  let got = Jsonx.to_string (Metrics.to_json reg) ^ "\n" in
  let path =
    (* dune runtest runs in _build/default/test; a manual run from the
       repo root finds the file under test/. *)
    if Sys.file_exists "golden/obs_metrics.json" then "golden/obs_metrics.json"
    else "test/golden/obs_metrics.json"
  in
  let ic = open_in_bin path in
  let want =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  check_bool "golden obs_metrics.json unchanged by the durability layer" true (got = want)

let suites =
  [
    ( "recovery.record",
      [
        Alcotest.test_case "roundtrip every payload" `Quick test_record_roundtrip;
        Alcotest.test_case "crc rejects a bit flip" `Quick test_record_crc_rejects_flip;
        Alcotest.test_case "bad-crc encoder" `Quick test_record_bad_crc_encoder;
        QCheck_alcotest.to_alcotest qcheck_codec;
        QCheck_alcotest.to_alcotest qcheck_decode_total;
      ] );
    ( "recovery.wal",
      [
        Alcotest.test_case "non-durable log is a no-op" `Quick test_non_durable_log_is_noop;
        Alcotest.test_case "lsns, frontier, power loss" `Quick test_durable_lsns_and_crash;
        Alcotest.test_case "fsync failpoint conservative" `Quick test_fsync_failpoint_conservative;
        QCheck_alcotest.to_alcotest qcheck_frames_from;
      ] );
    ( "recovery.restart",
      [
        Alcotest.test_case "checkpoint-spanning commit" `Quick test_checkpoint_spanning_commit_replays;
        QCheck_alcotest.to_alcotest qcheck_crash_at_every_lsn;
        Alcotest.test_case "honest restart truncates torn tail" `Quick
          test_honest_restart_truncates_torn_tail;
        Alcotest.test_case "skipped tail check is caught" `Quick test_skipped_tail_check_is_caught;
      ] );
    ( "recovery.compat",
      [
        Alcotest.test_case "durability workload-invisible" `Quick test_durability_is_workload_invisible;
        Alcotest.test_case "golden metrics unchanged" `Slow test_golden_metrics_unchanged;
      ] );
  ]
