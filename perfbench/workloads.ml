(* The three workloads and one slice of each.

   A slice is one whole deterministic Sim run, sized to a fraction of a
   second of wall time so that a run holds many of them, each next to a
   reference-kernel timing. Everything a slice needs is derived from
   its seed, so re-running a seed must reproduce its digest exactly. *)

type slice = {
  seed : int;
  setup_ns : int;  (** fastest of the slice's engine or group constructions *)
  wall_ns : int;  (** the run itself, set-up excluded *)
  alloc_words : float;  (** minor + major - promoted, whole run *)
  minor_gcs : int;
  major_gcs : int;
  commits : int;
  attempts : int;
  aborts : int;  (** conflicts, external kills, give-ups and net-aborts *)
  sim_s : float;
  peak_version : int;  (** bytes *)
  violations : int;
  crashes : int;
  cross_commits : int;
  quorum : int;  (** sync-replication quorum; 0 when unreplicated *)
  twopc_steps : int;
  epochs : int;
  latch_wait_ns : int;
  replayed : int list;  (** redo records replayed by each restart *)
  checks : int;  (** periodic invariant sweeps run *)
  check_all_ns : int;  (** bench-side [Invariant.check_all] at slice end *)
  analyze_ns : int;  (** bench-side [Wal_recovery.analyze] of the final log *)
  analyze_frames : int;
  registry : (string * Metrics.value) list;  (** empty unless a registry was installed *)
  digest : string;
}

type mode = {
  metrics : bool;  (** install a [Metrics] registry (harmless to the simulation) *)
  trace : Layer_trace.t option;
      (** wrap the engine closures in spans, and time [Wal_recovery.analyze]
          on the final log *)
  audit : bool;  (** false: periodic invariant sweep off (companion slices) *)
}

type t = {
  name : string;
  distinct_seeds : int;  (** slice seeds per run; the timed loop cycles through them *)
  audited : bool;  (** runs a periodic invariant sweep that [audit = false] turns off *)
  run : seed:int -> mode -> slice;
  check : slice -> string list;  (** workload-specific correctness gate *)
}

let vbuffer_bytes = State.default_config.State.vbuffer_bytes

let counter reg name =
  match List.assoc_opt name reg with Some (Metrics.Counter n) -> n | _ -> 0

let histo reg name =
  match List.assoc_opt name reg with Some (Metrics.Histo h) -> Some h | _ -> None

(* One histogram of [name] over every slice that recorded it. *)
let merged_histo name slices =
  List.fold_left
    (fun acc s ->
      match (acc, histo s.registry name) with
      | None, h -> h
      | Some a, Some h -> Some (Histogram.merge a h)
      | a, None -> a)
    None slices

let zipf = [ { Exp_config.at_s = 0.; pattern = Access.Zipfian 0.9 } ]
let small_schema = { Schema.default with Schema.tables = 4; rows_per_table = 250 }

(* Installs a registry when asked, with a 1 us latency histogram
   registered first so [txn.duration_us] keeps full resolution. *)
let with_registry mode f =
  if not mode.metrics then (f (), [])
  else begin
    let reg = Metrics.create () in
    ignore (Metrics.histogram reg ~bucket_width:1 "txn.duration_us");
    let r = Metrics.with_registry reg f in
    (r, Metrics.snapshot reg)
  end

let alloc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s.Gc.minor_collections, s.Gc.major_collections)

let time_ns f =
  let t0 = Clock_ns.now () in
  let r = f () in
  (r, Clock_ns.now () - t0)

type setup = { mutable fastest_ns : int; mutable total_ns : int; mutable words : float }

(* Builds [setup_builds] times back to back and keeps the last build.
   The fastest build is the slice's set-up figure; all builds are
   excluded from the slice's wall time and allocation. *)
let setup_builds = 5

let construct setup make =
  let w0, _, _ = alloc_words () in
  let last = ref None in
  for _ = 1 to setup_builds do
    let e, ns = time_ns make in
    setup.fastest_ns <- min setup.fastest_ns ns;
    setup.total_ns <- setup.total_ns + ns;
    last := Some e
  done;
  let w1, _, _ = alloc_words () in
  setup.words <- w1 -. w0;
  Option.get !last

(* Times [f] outside of the set-up it reports through [setup]. *)
let measured f =
  let setup = { fastest_ns = max_int; total_ns = 0; words = 0. } in
  let w0, mi0, ma0 = alloc_words () in
  let t0 = Clock_ns.now () in
  let r = f setup in
  let wall = Clock_ns.now () - t0 - setup.total_ns in
  let w1, mi1, ma1 = alloc_words () in
  (r, setup.fastest_ns, wall, w1 -. w0 -. setup.words, mi1 - mi0, ma1 - ma0)

(* ---- Runner workloads ---- *)

let runner_slice ~cfg ~make ~faults mode =
  let engine = ref None in
  let build setup schema =
    let e = construct setup (fun () -> make schema) in
    let e = match mode.trace with Some tr -> Layer_trace.wrap_engine tr e | None -> e in
    engine := Some e;
    e
  in
  let (r, registry), setup_ns, wall_ns, alloc, minor_gcs, major_gcs =
    measured (fun setup ->
        with_registry mode (fun () -> Runner.run ~engine:(build setup) ?faults cfg))
  in
  let eng = Option.get !engine in
  let driver = Option.get eng.Engine.driver in
  let swept, check_all_ns = time_ns (fun () -> Invariant.check_all driver) in
  let analyze_ns, analyze_frames =
    match driver.State.wal with
    | Some wal when mode.trace <> None && Wal.is_durable wal ->
        let a, ns = time_ns (fun () -> Wal_recovery.analyze wal) in
        if a.Wal_recovery.dropped <> 0 then
          failwith (Printf.sprintf "final log has %d untrustworthy frames" a.Wal_recovery.dropped);
        (ns, a.Wal_recovery.survivors)
    | _ -> (0, 0)
  in
  let kills = r.Runner.retries + r.Runner.give_ups in
  let digest =
    Run_digest.of_result ~mode:"sim" ~domains:0 cfg r |> Run_digest.to_json |> Jsonx.to_string
  in
  {
    seed = cfg.Exp_config.seed;
    setup_ns;
    wall_ns;
    alloc_words = alloc;
    minor_gcs;
    major_gcs;
    commits = r.Runner.commits;
    attempts = r.Runner.commits + r.Runner.conflicts + kills;
    aborts = r.Runner.conflicts + kills;
    sim_s = cfg.Exp_config.duration_s;
    peak_version = Runner.peak_space r;
    violations = Fault_report.violation_count r.Runner.faults + List.length swept;
    crashes = r.Runner.crashes;
    cross_commits = 0;
    quorum = 0;
    twopc_steps = 0;
    epochs = 0;
    latch_wait_ns = r.Runner.latch_wait;
    replayed = List.map (fun ri -> ri.Engine.replayed_records) r.Runner.recoveries;
    checks = Fault_report.checks_run r.Runner.faults;
    check_all_ns;
    analyze_ns;
    analyze_frames;
    registry;
    digest;
  }

(* The paper's regime: the full-size table, 16 workers and a fleet of
   staggered LLTs whose pinned versions outgrow the 8 MiB vBuffer, so
   reads reach the version store and vCutter cuts hardened segments
   once the fleet commits. *)
let llt_paper_cfg seed =
  {
    Exp_config.default with
    Exp_config.name = "llt-paper";
    seed;
    duration_s = 0.8;
    workers = 16;
    reads_per_txn = 4;
    writes_per_txn = 2;
    schema = Schema.default;
    phases = zipf;
    llts = List.init 8 (fun i -> { Exp_config.start_s = 0.05 *. float_of_int i; duration_s = 0.5; count = 1 });
    gc_period = Clock.ms 10;
    sample_period_s = 0.01;
  }

let llt_paper =
  {
    name = "llt-paper";
    distinct_seeds = 4;
    audited = false;
    run =
      (fun ~seed mode ->
        runner_slice ~cfg:(llt_paper_cfg seed) ~make:(Siro_engine.create ~flavor:`Pg) ~faults:None
          mode);
    check =
      (fun s ->
        let reg = s.registry in
        let store_reads = counter reg "read.store_io" + counter reg "read.store_cached" in
        List.concat
          [
            (if s.peak_version <= vbuffer_bytes then
               [ Printf.sprintf "peak version space %d B does not spill past the vBuffer" s.peak_version ]
             else []);
            (if reg <> [] && store_reads = 0 then [ "no version-store reads" ] else []);
            (if reg <> [] && counter reg "vcutter.segments_cut" = 0 then [ "no vCutter cuts" ] else []);
          ]);
  }

(* Durability and recovery: the typed WAL with fuzzy checkpoints, one
   seeded power loss with a torn tail per slice, restart-replay and the
   post-recovery audit, plus the plan's periodic invariant sweep. A
   small write-heavy table keeps version space inside the vBuffer. *)
let durable_crash_cfg seed =
  {
    Exp_config.name = "durable-crash";
    seed;
    duration_s = 0.3;
    workers = 8;
    reads_per_txn = 2;
    writes_per_txn = 4;
    schema = small_schema;
    phases = zipf;
    llts = [ { Exp_config.start_s = 0.02; duration_s = 0.15; count = 2 } ];
    gc_period = Clock.ms 10;
    sample_period_s = 0.01;
    ckpt_period_s = 0.05;
  }

let durable_config = { State.default_config with State.durable_wal = true }

let durable_crash =
  {
    name = "durable-crash";
    distinct_seeds = 4;
    audited = true;
    run =
      (fun ~seed mode ->
        let crash_at = 14_000 + Rng.int (Rng.create seed) 2_000 in
        let faults =
          Fault_plan.create ~seed ~crash_points:[ crash_at ] ~torn_tail:true
            ?check_period:(if mode.audit then None else Some (Clock.seconds 3600.))
            ()
        in
        runner_slice ~cfg:(durable_crash_cfg seed)
          ~make:(Siro_engine.create ~driver_config:durable_config ~flavor:`Pg)
          ~faults:(Some faults) mode);
    check =
      (fun s ->
        List.concat
          [
            (if s.crashes < 1 then [ "no crash-restart taken" ] else []);
            (if s.peak_version >= vbuffer_bytes then
               [ Printf.sprintf "peak version space %d B spills past the vBuffer" s.peak_version ]
             else []);
          ]);
  }

(* ---- Shard_runner workload ---- *)

let sharded_cfg seed ~audit =
  let base =
    {
      Exp_config.name = "sharded-repl";
      seed;
      duration_s = 0.12;
      workers = 8;
      reads_per_txn = 2;
      writes_per_txn = 4;
      schema = small_schema;
      phases = zipf;
      llts = [ { Exp_config.start_s = 0.01; duration_s = 0.08; count = 2 } ];
      gc_period = Clock.ms 10;
      sample_period_s = 0.01;
      ckpt_period_s = 0.05;
    }
  in
  let d = Shard_runner.default ~shards:2 base in
  { d with Shard_runner.cross_pct = 30; replicas = 1; check_period = (if audit then d.Shard_runner.check_period else 0) }

(* Distributed commit: two replicated shards behind 2PC on the
   transparent fabric, with the default 50 ms log-replaying sweeps. *)
let sharded_repl =
  {
    name = "sharded-repl";
    distinct_seeds = 6;
    audited = true;
    run =
      (fun ~seed mode ->
        let cfg = sharded_cfg seed ~audit:mode.audit in
        let build setup =
          ignore
            (construct setup (fun () ->
                 Shard_group.create ~shards:cfg.Shard_runner.shards cfg.Shard_runner.base.Exp_config.schema));
          Shard_runner.run cfg
        in
        let (r, registry), setup_ns, wall_ns, alloc, minor_gcs, major_gcs =
          measured (fun setup -> with_registry mode (fun () -> build setup))
        in
        let repl = r.Shard_runner.digest.Shard_runner.d_repl in
        {
          seed;
          setup_ns;
          wall_ns;
          alloc_words = alloc;
          minor_gcs;
          major_gcs;
          commits = r.Shard_runner.commits;
          attempts = r.Shard_runner.commits + r.Shard_runner.conflicts + r.Shard_runner.net_aborts;
          aborts = r.Shard_runner.conflicts + r.Shard_runner.net_aborts;
          sim_s = cfg.Shard_runner.base.Exp_config.duration_s;
          peak_version = r.Shard_runner.peak_space;
          violations = Fault_report.violation_count r.Shard_runner.report;
          crashes = r.Shard_runner.crashes;
          cross_commits = r.Shard_runner.cross_commits;
          quorum = (match repl with Some rd -> rd.Shard_runner.rd_quorum | None -> 0);
          twopc_steps = r.Shard_runner.two_pc_steps;
          epochs = r.Shard_runner.epochs;
          latch_wait_ns = 0;
          replayed = List.map (fun ri -> ri.Engine.replayed_records) r.Shard_runner.recoveries;
          checks = Fault_report.checks_run r.Shard_runner.report;
          check_all_ns = 0;
          analyze_ns = 0;
          analyze_frames = 0;
          registry;
          digest = Jsonx.to_string (Shard_runner.digest_to_json r.Shard_runner.digest);
        });
    check =
      (fun s ->
        List.concat
          [
            (if s.cross_commits = 0 then [ "no cross-shard commits" ] else []);
            (if s.quorum < 2 then [ Printf.sprintf "commit quorum %d does not include a backup" s.quorum ] else []);
          ]);
  }

let all = [ llt_paper; durable_crash; sharded_repl ]
