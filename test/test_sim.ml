(* Tests for repro_sim: clock, resources (latches), the inline Exec
   substrate as discrete-event scheduler. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Clock *)

let test_clock_conversions () =
  check_int "us" 3_000 (Clock.us 3);
  check_int "ms" 2_000_000 (Clock.ms 2);
  check_int "seconds" 1_500_000_000 (Clock.seconds 1.5);
  check_bool "roundtrip" true (abs_float (Clock.to_seconds (Clock.seconds 2.5) -. 2.5) < 1e-9)

(* -------------------------------------------------------------------- *)
(* Resource *)

let test_resource_uncontended () =
  let r = Resource.create "latch" in
  let done_at = Resource.acquire r ~now:100 ~hold:50 in
  check_int "grant immediately" 150 done_at;
  check_int "no waiting" 0 (Resource.wait_time r);
  check_int "busy" 50 (Resource.busy_time r)

let test_resource_queueing () =
  let r = Resource.create "latch" in
  let a = Resource.acquire r ~now:0 ~hold:100 in
  check_int "first ends at 100" 100 a;
  (* Second arrival at t=10 must wait until 100. *)
  let b = Resource.acquire r ~now:10 ~hold:5 in
  check_int "second ends at 105" 105 b;
  check_int "waited 90" 90 (Resource.wait_time r);
  check_int "two acquisitions" 2 (Resource.acquisitions r)

let test_resource_gap () =
  let r = Resource.create "latch" in
  ignore (Resource.acquire r ~now:0 ~hold:10);
  (* Arrival after the resource went idle: no wait. *)
  let b = Resource.acquire r ~now:50 ~hold:10 in
  check_int "no queueing after idle" 60 b;
  check_int "wait stays 0" 0 (Resource.wait_time r)

let test_resource_negative_hold () =
  let r = Resource.create "latch" in
  Alcotest.check_raises "negative hold" (Invalid_argument "Resource.acquire: negative hold")
    (fun () -> ignore (Resource.acquire r ~now:0 ~hold:(-1)))

(* -------------------------------------------------------------------- *)
(* Discrete-event scheduling: the inline Exec substrate *)

let test_scheduler_time_order () =
  let sched = Exec.inline () in
  let log = ref [] in
  Exec.spawn sched ~name:"b" ~at:20 (fun now ->
      log := ("b", now) :: !log;
      Exec.Finished);
  Exec.spawn sched ~name:"a" ~at:10 (fun now ->
      log := ("a", now) :: !log;
      Exec.Finished);
  ignore (Exec.run sched ~until:100);
  check_bool "a before b" true (List.rev !log = [ ("a", 10); ("b", 20) ])

let test_scheduler_periodic () =
  let sched = Exec.inline () in
  let ticks = ref 0 in
  Exec.spawn sched ~name:"tick" ~at:0 (fun now ->
      incr ticks;
      Exec.Sleep_until (now + 10));
  let last = Exec.run sched ~until:95 in
  (* fires at 0,10,...,90 *)
  check_int "ticks" 10 !ticks;
  check_int "now is the last dispatched wake-up" 90 last;
  check_int "now readable after the run" 90 (Exec.now sched)

let test_scheduler_until_boundary () =
  let sched = Exec.inline () in
  let fired = ref false in
  let at_until = ref false in
  Exec.spawn sched ~name:"late" ~at:101 (fun _ ->
      fired := true;
      Exec.Finished);
  Exec.spawn sched ~name:"edge" ~at:100 (fun _ ->
      at_until := true;
      Exec.Finished);
  ignore (Exec.run sched ~until:100);
  check_bool "beyond-horizon process not run" false !fired;
  check_bool "process at the horizon runs" true !at_until

let test_scheduler_progress_guarantee () =
  (* A process that reschedules at its own wake time must still make
     the simulation advance rather than loop forever. *)
  let sched = Exec.inline () in
  let steps = ref 0 in
  Exec.spawn sched ~name:"stutter" ~at:0 (fun now ->
      incr steps;
      if !steps > 1000 then Exec.Finished else Exec.Sleep_until now);
  let t = Exec.run sched ~until:10_000 in
  check_bool "advanced past 0" true (t > 0);
  check_int "step cap reached" 1001 !steps

let test_scheduler_tie_break_registration_order () =
  let sched = Exec.inline () in
  let log = ref [] in
  List.iter
    (fun name ->
      Exec.spawn sched ~name ~at:5 (fun _ ->
          log := name :: !log;
          Exec.Finished))
    [ "first"; "second"; "third" ];
  ignore (Exec.run sched ~until:10);
  check_bool "registration order" true (List.rev !log = [ "first"; "second"; "third" ])

let test_scheduler_interleaving_with_resource () =
  (* Two workers contending on one latch: completions must serialize. *)
  let sched = Exec.inline () in
  let latch = Resource.create "page" in
  let completions = ref [] in
  let spawn_worker name at =
    Exec.spawn sched ~name ~at (fun now ->
        let fin = Resource.acquire latch ~now ~hold:100 in
        completions := (name, fin) :: !completions;
        Exec.Finished)
  in
  spawn_worker "w1" 0;
  spawn_worker "w2" 10;
  ignore (Exec.run sched ~until:1_000);
  check_bool "serialized" true (List.rev !completions = [ ("w1", 100); ("w2", 200) ])

(* The probe sees every dispatch, in dispatch order, before the step. *)
let test_scheduler_probe () =
  let sched = Exec.inline () in
  let log = ref [] in
  Exec.spawn sched ~name:"p" ~at:3 (fun now ->
      log := Printf.sprintf "step p@%d" now :: !log;
      if now >= 5 then Exec.Finished else Exec.Sleep_until (now + 2));
  Exec.set_probe sched (fun ~name ~now -> log := Printf.sprintf "probe %s@%d" name now :: !log);
  ignore (Exec.run sched ~until:100);
  check_bool "probe precedes each step" true
    (List.rev !log = [ "probe p@3"; "step p@3"; "probe p@5"; "step p@5" ]);
  Alcotest.check_raises "probe is inline-only"
    (Invalid_argument "Exec.set_probe: the dispatch probe is inline-only") (fun () ->
      Exec.set_probe (Exec.domains ~domains:1 ()) (fun ~name:_ ~now:_ -> ()))

(* Inline dispatch order equals a reference stable sort of every
   (wake-up, spawn seq) the tasks ever ask for. Each task carries a
   script of relative sleeps, some into the past (bumped to now + 1);
   the reference replays the same scripts against a plain list. *)
type script_task = { start : int; sleeps : int list }

let reference_order tasks ~until =
  (* Each pending entry: (wake, seq, remaining script). Pick the
     minimum by (wake, seq) until every wake exceeds [until]. *)
  let pending =
    ref (List.mapi (fun seq t -> (t.start, seq, t.sleeps)) tasks)
  in
  let out = ref [] in
  let rec loop () =
    let live = List.filter (fun (w, _, _) -> w <= until) !pending in
    match List.sort compare live with
    | [] -> ()
    | ((w, seq, script) as best) :: _ ->
        out := (seq, w) :: !out;
        pending := List.filter (fun e -> e != best) !pending;
        (match script with
        | [] -> ()
        | d :: rest ->
            let next = w + d in
            let next = if next > w then next else w + 1 in
            pending := (next, seq, rest) :: !pending);
        loop ()
  in
  loop ();
  List.rev !out

let inline_order tasks ~until =
  let sched = Exec.inline () in
  let out = ref [] in
  List.iteri
    (fun seq t ->
      let script = ref t.sleeps in
      Exec.spawn sched ~name:(string_of_int seq) ~at:t.start (fun now ->
          out := (seq, now) :: !out;
          match !script with
          | [] -> Exec.Finished
          | d :: rest ->
              script := rest;
              Exec.Sleep_until (now + d)))
    tasks;
  ignore (Exec.run sched ~until);
  List.rev !out

let qcheck_inline_order_matches_reference =
  let open QCheck in
  let gen =
    Gen.(
      pair
        (list_size (int_range 1 12)
           (map2
              (fun start sleeps -> { start; sleeps })
              (int_range 0 40)
              (list_size (int_range 0 15) (int_range (-10) 25))))
        (int_range 0 200))
  in
  let print (tasks, until) =
    Printf.sprintf "until=%d tasks=[%s]" until
      (String.concat "; "
         (List.map
            (fun t ->
              Printf.sprintf "{start=%d sleeps=[%s]}" t.start
                (String.concat "," (List.map string_of_int t.sleeps)))
            tasks))
  in
  Test.make ~name:"inline dispatch order = stable sort by (wake-up, spawn seq)" ~count:500
    (make ~print gen) (fun (tasks, until) ->
      inline_order tasks ~until = reference_order tasks ~until)

(* -------------------------------------------------------------------- *)
(* Queue_model *)

let test_queue_model_idle () =
  let q = Queue_model.create "mutex" in
  let t = Queue_model.service q ~now:1000 ~hold:100 in
  check_int "no delay before utilization is measured" 1100 t;
  check_bool "utilization starts at 0" true (Queue_model.utilization q = 0.)

let test_queue_model_contention_grows_delay () =
  let q = Queue_model.create ~window:(Clock.us 1) "mutex" in
  (* Saturate a window: busy 100% of it. *)
  let now = ref 0 in
  for _ = 1 to 100 do
    now := !now + 500;
    ignore (Queue_model.service q ~now:!now ~hold:600)
  done;
  check_bool "utilization measured high" true (Queue_model.utilization q > 0.5);
  let t = Queue_model.service q ~now:(!now + 1000) ~hold:100 in
  check_bool "queueing delay charged" true (t > !now + 1000 + 100);
  check_bool "busy time accumulated" true (Queue_model.busy_time q > 0)

let test_queue_model_invalid () =
  let q = Queue_model.create "m" in
  Alcotest.check_raises "negative hold" (Invalid_argument "Queue_model.service: negative hold")
    (fun () -> ignore (Queue_model.service q ~now:0 ~hold:(-1)))

let suites =
  [
    ( "sim.clock",
      [ Alcotest.test_case "conversions" `Quick test_clock_conversions ] );
    ( "sim.queue_model",
      [
        Alcotest.test_case "idle service" `Quick test_queue_model_idle;
        Alcotest.test_case "contention adds delay" `Quick test_queue_model_contention_grows_delay;
        Alcotest.test_case "invalid hold" `Quick test_queue_model_invalid;
      ] );
    ( "sim.resource",
      [
        Alcotest.test_case "uncontended" `Quick test_resource_uncontended;
        Alcotest.test_case "queueing" `Quick test_resource_queueing;
        Alcotest.test_case "idle gap" `Quick test_resource_gap;
        Alcotest.test_case "negative hold rejected" `Quick test_resource_negative_hold;
      ] );
    ( "sim.scheduler",
      [
        Alcotest.test_case "time order" `Quick test_scheduler_time_order;
        Alcotest.test_case "periodic process" `Quick test_scheduler_periodic;
        Alcotest.test_case "until boundary" `Quick test_scheduler_until_boundary;
        Alcotest.test_case "progress guarantee" `Quick test_scheduler_progress_guarantee;
        Alcotest.test_case "deterministic tie-break" `Quick test_scheduler_tie_break_registration_order;
        Alcotest.test_case "latch serialization" `Quick test_scheduler_interleaving_with_resource;
        Alcotest.test_case "dispatch probe" `Quick test_scheduler_probe;
        QCheck_alcotest.to_alcotest qcheck_inline_order_matches_reference;
      ] );
  ]
