(* The repository benchmark: one workload per run, measured in slices.

     vbench.exe --workload NAME --seed N --seconds S --trace 0|1 --ref-kernel-ms K

   A run is one process on one OCaml domain. It first runs every
   distinct slice seed once, untimed (the warm-up pass, which also
   yields the simulated metrics and each seed's reference digest), then
   alternates reference-kernel timings with timed slices until [S]
   seconds have passed. Wall-derived metrics are scaled by (kernel time
   measured next to the slice / [K]). With [--trace 1] each seed's pass
   adds a traced slice (spans around the engine closures and a
   [Metrics] registry) and, where the workload runs a periodic sweep, a
   companion slice with the sweep off; the per-layer table is printed
   and its figures are the JSON metrics.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Any failed check
   makes the run exit 1. *)

(* ---- small statistics ---- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let mib bytes = float_of_int bytes /. 1048576.

(* ---- one timed slice ---- *)

(* Traced runs alternate the kinds within each seed's pass; a companion
   repeats the seed with the periodic invariant sweep off. *)
type kind = Plain | Traced | Companion

type timed = { s : Workloads.slice; kernel_ns : float; kind : kind }

let raw_cps t = float_of_int t.s.Workloads.commits /. (float_of_int t.s.Workloads.wall_ns /. 1e9)

(* Sim commits per wall-second, scaled to the pinned kernel time. *)
let norm_cps ~pinned_ns t = raw_cps t *. (t.kernel_ns /. pinned_ns)

(* ---- simulated metrics: exact functions of the slice seeds ---- *)

(* Percentile of a 1 us histogram, each sample spread evenly over its
   microsecond, so the figure keeps the resolution the counts carry. *)
let interpolated h q =
  let rec go prev = function
    | [] -> 0.
    | (v, frac) :: rest ->
        if frac >= q then float_of_int v +. ((q -. prev) /. (frac -. prev)) else go frac rest
  in
  go 0. (Histogram.cdf h)

let sim_metrics (slices : Workloads.slice list) =
  let open Workloads in
  let lat = Workloads.merged_histo "txn.duration_us" slices in
  let pct p = match lat with Some h -> interpolated h p | None -> 0. in
  [
    ("sim_throughput_cps", sumf (fun s -> float_of_int s.commits) slices /. sumf (fun s -> s.sim_s) slices);
    ("sim_latency_p50_us", pct 0.5);
    ("sim_latency_p99_us", pct 0.99);
    ("sim_peak_version_mib", sumf (fun s -> mib s.peak_version) slices /. float_of_int (List.length slices));
    ("abort_ratio", float_of_int (sumi (fun s -> s.aborts) slices) /. float_of_int (sumi (fun s -> s.attempts) slices));
  ]

let latency_samples slices =
  match Workloads.merged_histo "txn.duration_us" slices with Some h -> Histogram.total h | None -> 0

(* ---- the run ---- *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let gate o (w : Workloads.t) ~label ?reference (s : Workloads.slice) =
  o.attempted <- o.attempted + 1;
  let problems =
    List.concat
      [
        (if s.Workloads.violations > 0 then [ Printf.sprintf "%d invariant violations" s.Workloads.violations ] else []);
        (match reference with
        | Some (r : Workloads.slice) when r.Workloads.digest <> s.Workloads.digest ->
            [ "Sim digest differs from the seed's reference digest" ]
        | _ -> []);
        w.Workloads.check s;
      ]
  in
  if problems <> [] then begin
    o.failed <- o.failed + 1;
    List.iter
      (fun p -> o.problems <- Printf.sprintf "%s slice seed %d: %s" label s.Workloads.seed p :: o.problems)
      problems
  end

let plain = { Workloads.metrics = false; trace = None; audit = true }

let run ~(w : Workloads.t) ~seed ~seconds ~trace ~pinned_ms ~out_dir =
  let pinned_ns = pinned_ms *. 1e6 in
  let o = { attempted = 0; failed = 0; problems = [] } in
  let kernel = Ref_kernel.create () in
  let kernel_times = ref [] in
  let time_kernel () =
    let ns = Ref_kernel.time kernel in
    kernel_times := float_of_int ns :: !kernel_times;
    float_of_int ns
  in
  let rng = Rng.create seed in
  let seeds = Array.init w.Workloads.distinct_seeds (fun _ -> Rng.int rng 1_000_000_000) in
  (* Warm-up pass: untimed, with a registry (harmless to the simulation)
     for latency and the layer counters the gate reads. *)
  let refs =
    Array.map
      (fun sd ->
        Gc.compact ();
        let s = w.Workloads.run ~seed:sd { plain with Workloads.metrics = true } in
        gate o w ~label:"warm-up" s;
        s)
      seeds
  in
  let peak_heap_mib = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576. in
  let layer = if trace then Some (Layer_trace.create ()) else None in
  let timed = ref [] in
  let mode_of = function
    | Plain -> plain
    | Companion -> { plain with Workloads.audit = false }
    | Traced -> { Workloads.metrics = true; trace = layer; audit = true }
  in
  (* One kernel timing between consecutive slices; a slice is scaled by
     the mean of the timings on either side of it. *)
  let kernel_before = ref 0. in
  let timed_slice j kind =
    let mode = mode_of kind in
    Gc.compact ();
    let s =
      match mode.Workloads.trace with
      | Some tr -> Layer_trace.timed tr "bench.slice" (fun () -> w.Workloads.run ~seed:seeds.(j) mode)
      | None -> w.Workloads.run ~seed:seeds.(j) mode
    in
    let kb = !kernel_before in
    let ka = time_kernel () in
    kernel_before := ka;
    (* A companion changes the schedule, so it has no reference digest. *)
    if kind = Companion then gate o w ~label:"companion" s
    else gate o w ~label:"timed" ~reference:refs.(j) s;
    let t = { s; kernel_ns = (kb +. ka) /. 2.; kind } in
    Printf.printf "slice %2d seed %9d%s wall %8.2f ms kernel %6.2f/%6.2f ms setup %7.3f ms raw %9.1f norm %9.1f commits/s\n%!"
      (List.length !timed) s.Workloads.seed
      (match kind with Plain -> "" | Traced -> " traced" | Companion -> " no-sweep")
      (float_of_int s.Workloads.wall_ns /. 1e6)
      (kb /. 1e6) (ka /. 1e6) (float_of_int s.Workloads.setup_ns /. 1e6) (raw_cps t) (norm_cps ~pinned_ns t);
    t
  in
  let pass =
    match layer with
    | None -> [| Plain |]
    | Some _ -> if w.Workloads.audited then [| Plain; Traced; Companion |] else [| Plain; Traced |]
  in
  let per_pass = Array.length pass in
  let min_slices = per_pass * Array.length seeds in
  let start = Clock_ns.now () in
  kernel_before := time_kernel ();
  let i = ref 0 in
  while !i < min_slices || float_of_int (Clock_ns.now () - start) /. 1e9 < seconds do
    let kind = pass.(!i mod per_pass) in
    Option.iter (fun tr -> tr.Layer_trace.slice <- !i) layer;
    timed := timed_slice (!i / per_pass mod Array.length seeds) kind :: !timed;
    incr i
  done;
  let timed = List.rev !timed in
  let of_kind k = List.filter (fun t -> t.kind = k) timed in
  let untraced = of_kind Plain in
  let refs_l = Array.to_list refs in
  let sims = sim_metrics refs_l in
  (* Allocation repeats per seed (to about 0.1%); the per-seed median keeps the
     figure independent of how many repeats the time budget allowed. *)
  let alloc_per_commit =
    let per_seed =
      Array.to_list
        (Array.mapi
           (fun j sd ->
             let mine = List.filter (fun t -> t.s.Workloads.seed = sd) untraced in
             (median (List.map (fun t -> t.s.Workloads.alloc_words) mine), refs.(j).Workloads.commits))
           seeds)
    in
    sumf fst per_seed /. float_of_int (sumi snd per_seed)
  in
  let norm = List.map (norm_cps ~pinned_ns) untraced in
  (* The fastest construction of the run: its median moved by +-15%
     from run to run with the machine's slow phases, which the kernel
     does not track for so short a burst; its minimum moved by +-2%. *)
  let setup_s = float_of_int (List.fold_left (fun m t -> min m t.s.Workloads.setup_ns) max_int untraced) /. 1e9 in
  let end_to_end =
    sims
    @ [
        ("norm_commits_per_wall_s", median norm);
        ("alloc_words_per_commit", alloc_per_commit);
        ("peak_heap_mib", peak_heap_mib);
        ("setup_s", setup_s);
      ]
  in
  let kernel_ms = median !kernel_times /. 1e6 in
  let raw = median (List.map raw_cps untraced) in
  Printf.printf "workload %s seed %d: %d timed slices over slice seeds [%s]\n" w.Workloads.name seed
    (List.length timed)
    (String.concat "; " (Array.to_list (Array.map string_of_int seeds)));
  Printf.printf "latency samples %d (p99 has %d beyond it)\n" (latency_samples refs_l)
    (latency_samples refs_l / 100);
  Printf.printf "bench.ref_kernel_ms %.4f (pinned %.4f)  bench.raw_commits_per_wall_s %.1f\n" kernel_ms
    pinned_ms raw;
  let per_layer =
    match layer with
    | None -> []
    | Some tr ->
        let traced = List.map (fun t -> t.s) (of_kind Traced) in
        (* The instrumentation must be harmless: every traced slice already
           matched its seed's digest; the simulated metrics of one traced
           pass must also equal the untraced ones, figure for figure. *)
        let first_traced =
          Array.to_list (Array.map (fun sd -> List.find (fun s -> s.Workloads.seed = sd) traced) seeds)
        in
        if sim_metrics first_traced <> sims then
          o.problems <- "traced simulated metrics differ from the untraced run" :: o.problems;
        let median_norm k = median (List.map (norm_cps ~pinned_ns) (of_kind k)) in
        let audit_share =
          if w.Workloads.audited then Some (1. -. (median norm /. median_norm Companion)) else None
        in
        Layer_report.compute ~tr ~traced ~untraced:(List.map (fun t -> t.s) untraced) ~audit_share
          ~kernel_ms ~raw_cps:raw
          ~trace_overhead:
            ((median norm /. median_norm Traced) -. 1.)
  in
  (match (layer, out_dir) with
  | Some tr, Some dir ->
      let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.json" w.Workloads.name seed) in
      Layer_trace.write_chrome tr path;
      Printf.printf "spans -> %s\n" path
  | _ -> ());
  (o, end_to_end, per_layer)

let units =
  [
    ("sim_throughput_cps", "1/s");
    ("sim_latency_p50_us", "us");
    ("sim_latency_p99_us", "us");
    ("sim_peak_version_mib", "MiB");
    ("abort_ratio", "ratio");
    ("norm_commits_per_wall_s", "1/s");
    ("alloc_words_per_commit", "words");
    ("peak_heap_mib", "MiB");
    ("setup_s", "s");
  ]

let json_metrics figures =
  String.concat ", "
    (List.map
       (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       figures)

let main workload seed seconds trace pinned_ms out_dir =
  match List.find_opt (fun w -> w.Workloads.name = workload) Workloads.all with
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      2
  | Some w ->
      let o, end_to_end, per_layer =
        try run ~w ~seed ~seconds ~trace ~pinned_ms ~out_dir
        with Failure msg ->
          ({ attempted = 1; failed = 1; problems = [ msg ] }, [], [])
      in
      List.iter
        (fun (name, v) -> Printf.printf "  %-36s %14.6g %s\n" name v (List.assoc name units))
        end_to_end;
      Layer_report.print per_layer;
      List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev o.problems);
      let correct = o.problems = [] in
      let figures =
        if trace then
          List.map
            (fun f -> (f.Layer_report.name, f.Layer_report.unit, Option.value f.Layer_report.value ~default:0.))
            per_layer
        else List.map (fun (name, v) -> (name, List.assoc name units, v)) end_to_end
      in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
        o.attempted o.failed (json_metrics figures);
      if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let pinned = ref 0. and out_dir = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME llt-paper | durable-crash | sharded-repl");
      ("--seed", Arg.Set_int seed, "N workload seed (slice seeds derive from it)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run printing the per-layer table");
      ("--ref-kernel-ms", Arg.Set_float pinned, "K pinned reference-kernel time");
      ("--out", Arg.Set_string out_dir, "DIR where a traced run writes its spans");
    ]
  in
  let usage = "vbench --workload NAME --seed N --seconds S --trace 0|1 --ref-kernel-ms K [--out DIR]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !workload = "" || !pinned <= 0. || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  exit (main !workload !seed !seconds (!trace = 1) !pinned (if !out_dir = "" then None else Some !out_dir))
