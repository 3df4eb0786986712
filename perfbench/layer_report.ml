(* Per-layer metrics of a traced run.

   Each figure names the end-to-end metric and workload it is expected
   to move; the table prints that beside the value. Wall figures are raw
   (not kernel-scaled); [bench.ref_kernel_ms] is printed to scale them.
   A figure that does not apply to the workload (no engine closures to
   wrap under [Shard_runner], no durable log without [durable_wal], ...)
   prints as n/a and reads 0 in the JSON. *)

type figure = { name : string; unit : string; moves : string; value : float option }

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let per a b = if b = 0 then None else Some (float_of_int a /. float_of_int b)

let compute ~(tr : Layer_trace.t) ~(traced : Workloads.slice list) ~(untraced : Workloads.slice list)
    ~audit_share ~kernel_ms ~raw_cps ~trace_overhead =
  let open Workloads in
  let c name = sum (fun s -> Workloads.counter s.registry name) traced in
  let commits = sum (fun s -> s.commits) traced in
  let wall = sum (fun s -> s.wall_ns) traced in
  let wrapped = Layer_trace.calls tr "engines.commit" > 0 in
  let durable = sum (fun s -> s.analyze_frames) traced > 0 in
  let sharded = sum (fun s -> s.cross_commits) traced > 0 in
  let when_ b v = if b then v else None in
  let mean_of name scale = when_ (Layer_trace.calls tr name > 0) (Some (Layer_trace.mean_ns tr name /. scale)) in
  let engine_ns name = when_ wrapped (Some (Layer_trace.mean_ns tr name)) in
  let wrapped_ns =
    Hashtbl.fold (fun k (a : Layer_trace.acc) acc -> if k = "bench.slice" then acc else acc + a.Layer_trace.ns) tr.Layer_trace.accs 0
  in
  let sim_s = List.fold_left (fun acc s -> acc +. s.sim_s) 0. traced in
  let hops = Workloads.merged_histo "scan.chain_length" traced in
  let reads = match hops with Some h -> Histogram.total h | None -> 0 in
  let replayed = List.concat_map (fun s -> s.replayed) traced in
  let ucommits = sum (fun s -> s.commits) untraced in
  let f name unit moves value = { name; unit; moves; value } in
  [
    f "workload.self_share" "ratio" "norm_commits_per_wall_s on durable-crash"
      (when_ wrapped (Some (1. -. (float_of_int wrapped_ns /. float_of_int wall))));
    f "sim.dispatches_per_commit" "count" "norm_commits_per_wall_s on all" (per (c "scheduler.dispatches") commits);
    f "engines.read_ns" "ns" "norm_commits_per_wall_s on llt-paper" (engine_ns "engines.read");
    f "engines.write_ns" "ns" "norm_commits_per_wall_s on durable-crash" (engine_ns "engines.write");
    f "engines.commit_ns" "ns" "norm_commits_per_wall_s on durable-crash" (engine_ns "engines.commit");
    f "engines.begin_ns" "ns" "norm_commits_per_wall_s" (engine_ns "engines.begin");
    f "engines.txn_alloc_words_per_commit" "words" "alloc_words_per_commit on llt-paper"
      (when_ wrapped
         (Some
            (List.fold_left (fun acc n -> acc +. Layer_trace.words tr n) 0. Layer_trace.txn_calls
            /. float_of_int commits)));
    f "engines.latch_wait_us_per_commit" "us" "sim_latency_p99_us on llt-paper"
      (when_ wrapped (Some (float_of_int (sum (fun s -> s.latch_wait_ns) traced) /. 1e3 /. float_of_int commits)));
    f "version.chain_hops_p99" "count" "sim_latency_p99_us on llt-paper"
      (Option.map (fun h -> float_of_int (Histogram.percentile h 0.99)) hops);
    f "core.store_read_share" "ratio" "sim_latency_p99_us on llt-paper"
      (per (c "read.store_io" + c "read.store_cached") reads);
    f "core.maintenance_us" "us" "norm_commits_per_wall_s on llt-paper" (mean_of "core.maintenance" 1e3);
    f "core.maintenance_share" "ratio" "norm_commits_per_wall_s on llt-paper"
      (when_ wrapped (per (Layer_trace.total_ns tr "core.maintenance") wall));
    f "core.relocations_per_commit" "count" "sim_peak_version_mib on llt-paper" (per (c "vsorter.relocations") commits);
    f "core.prune1_share" "ratio" "sim_peak_version_mib on llt-paper" (per (c "vsorter.prune1") (c "vsorter.relocations"));
    f "core.cut_yield" "ratio" "sim_peak_version_mib on llt-paper" (per (c "vcutter.segments_cut") (c "vcutter.segments_scanned"));
    f "storage.wal_bytes_per_commit" "B" "alloc_words_per_commit on durable-crash" (per (c "wal.bytes") commits);
    f "storage.fsyncs_per_commit" "count" "norm_commits_per_wall_s on durable-crash" (per (c "wal.fsyncs") commits);
    f "storage.checkpoint_ms" "ms" "norm_commits_per_wall_s on durable-crash" (mean_of "storage.checkpoint" 1e6);
    f "storage.restart_ms" "ms" "norm_commits_per_wall_s on durable-crash" (mean_of "storage.restart" 1e6);
    f "storage.replayed_per_restart" "count" "norm_commits_per_wall_s on durable-crash"
      (per (List.fold_left ( + ) 0 replayed) (List.length replayed));
    f "storage.analyze_ns_per_frame" "ns" "norm_commits_per_wall_s on durable-crash, sharded-repl"
      (when_ durable (per (sum (fun s -> s.analyze_ns) traced) (sum (fun s -> s.analyze_frames) traced)));
    f "fault.checks_per_sim_s" "1/s" "norm_commits_per_wall_s on durable-crash"
      (Some (float_of_int (sum (fun s -> s.checks) traced) /. sim_s));
    f "fault.check_all_ms" "ms" "norm_commits_per_wall_s on durable-crash"
      (when_ wrapped (Some (float_of_int (sum (fun s -> s.check_all_ns) traced) /. 1e6 /. float_of_int (List.length traced))));
    f "fault.audit_share" "ratio" "norm_commits_per_wall_s on sharded-repl" audit_share;
    f "twopc.cross_share" "ratio" "sim_latency_p99_us on sharded-repl" (when_ sharded (per (sum (fun s -> s.cross_commits) traced) commits));
    f "twopc.steps_per_cross_commit" "count" "sim_latency_p99_us on sharded-repl"
      (when_ sharded (per (sum (fun s -> s.twopc_steps) traced) (sum (fun s -> s.cross_commits) traced)));
    f "deadzone.epochs_per_sim_s" "1/s" "sim_peak_version_mib on sharded-repl"
      (when_ sharded (Some (float_of_int (sum (fun s -> s.epochs) traced) /. sim_s)));
    f "txn.attempts_per_commit" "count" "abort_ratio" (per (sum (fun s -> s.attempts) traced) commits);
    f "runtime.minor_gcs_per_kcommit" "count" "norm_commits_per_wall_s, peak_heap_mib on all"
      (Option.map (fun x -> x *. 1000.) (per (sum (fun s -> s.minor_gcs) untraced) ucommits));
    f "runtime.major_gcs_per_kcommit" "count" "norm_commits_per_wall_s, peak_heap_mib on all"
      (Option.map (fun x -> x *. 1000.) (per (sum (fun s -> s.major_gcs) untraced) ucommits));
    f "bench.ref_kernel_ms" "ms" "(scale of every normalised figure)" (Some kernel_ms);
    f "bench.raw_commits_per_wall_s" "1/s" "(norm_commits_per_wall_s before scaling)" (Some raw_cps);
    f "bench.trace_overhead" "ratio" "(traced vs untraced wall per commit)" (Some trace_overhead);
  ]

let print figures =
  List.iter
    (fun { name; unit; moves; value } ->
      let v = match value with Some v -> Printf.sprintf "%.6g" v | None -> "n/a" in
      Printf.printf "  %-36s %14s %-6s moves %s\n" name v unit moves)
    figures
