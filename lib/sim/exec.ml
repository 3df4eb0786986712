(* Execution substrate: one (wake-time, step) task shape, runnable either
   deterministically inline — the discrete-event simulator — or on real
   OCaml 5 domains under a bounded virtual-time skew window.

   Inline dispatch. A binary min-heap on (wake-up, spawn seq): pop the
   earliest task, step it, push it back at the wake-up it asked for.
   Keys are unique, so the pop order is a total order and whole runs are
   reproducible. A task whose wake-up exceeds [until] stays parked in
   the heap and the run ends when the heap top is past [until].

   Window protocol (domains substrate). Every task publishes its next
   wake-up time in an Atomic cell ([max_int] once retired). The global
   frontier is the minimum over those cells. A domain may dispatch one
   of its tasks iff the task's wake-up is <= frontier + window. The task
   that *holds* the frontier always satisfies this, so at least one
   domain can always make progress and the protocol cannot deadlock.
   Monotonicity: a step at time t only ever publishes a strictly larger
   time (Sleep_until in the past is bumped to t+1, as inline), so the
   frontier never moves backwards.

   All cross-domain state here — the clock cells, the skew/step
   telemetry — is sequentially-consistent Atomics; everything else is
   owned by exactly one domain for the whole run. *)

type outcome = Sleep_until of Clock.time | Finished
type mode = Sim | Domains of { domains : int }

type task = {
  name : string;
  seq : int; (* spawn order; deterministic tie-break *)
  step : Clock.time -> outcome;
  mutable at : Clock.time; (* next wake-up (inline; the domains start clock) *)
}

type substrate = Inline | Domains of int

type t = {
  substrate : substrate;
  window : Clock.time;
  lock : Mutex.t; (* the big lock of [serialized]; domains only *)
  mutable tasks : task list; (* reverse spawn order until [run] *)
  mutable spawned : int;
  mutable started : bool;
  mutable finished : bool;
  mutable probe : (name:string -> now:Clock.time -> unit) option;
  (* inline state *)
  mutable heap : task array;
  mutable len : int;
  mutable now : Clock.time; (* last dispatched wake-up *)
  mutable inline_steps : int;
  (* domains state *)
  last : int Atomic.t; (* largest wake-up dispatched *)
  max_skew : int Atomic.t;
  steps_total : int Atomic.t;
  frontier_cache : int Atomic.t; (* last frontier computed; for [frontier] *)
}

let make substrate window =
  {
    substrate;
    window;
    lock = Mutex.create ();
    tasks = [];
    spawned = 0;
    started = false;
    finished = false;
    probe = None;
    heap = [||];
    len = 0;
    now = 0;
    inline_steps = 0;
    last = Atomic.make 0;
    max_skew = Atomic.make 0;
    steps_total = Atomic.make 0;
    frontier_cache = Atomic.make 0;
  }

(* 25 us — see the calibration note in exec.mli. *)
let default_window = Clock.us 25
let inline () = make Inline 0

let domains ?(window = default_window) ~domains () =
  if domains < 1 then invalid_arg "Exec.domains: need at least one domain";
  make (Domains domains) window

let create = function
  | Sim -> inline ()
  | Domains { domains = n } -> domains ~domains:n ()

let max_skew_observed t = Atomic.get t.max_skew
let steps t = t.inline_steps + Atomic.get t.steps_total

let now t =
  match t.substrate with Inline -> t.now | Domains _ -> Atomic.get t.last

let frontier t =
  match t.substrate with
  | Inline when t.started && not t.finished -> t.now
  | _ -> Atomic.get t.frontier_cache

let spawn t ~name ~at step =
  if t.started then invalid_arg "Exec.spawn: run already started";
  t.tasks <- { name; seq = t.spawned; step; at } :: t.tasks;
  t.spawned <- t.spawned + 1

let serialized t step =
  match t.substrate with
  | Inline -> step
  | Domains _ ->
      fun now ->
        Mutex.lock t.lock;
        (match step now with
        | outcome ->
            Mutex.unlock t.lock;
            outcome
        | exception exn ->
            Mutex.unlock t.lock;
            raise exn)

let set_probe t f =
  match t.substrate with
  | Inline -> t.probe <- Some f
  | Domains _ -> invalid_arg "Exec.set_probe: the dispatch probe is inline-only"

(* A dummy seq_cst atomic round-trip is a full fence in the OCaml 5
   memory model: it both publishes prior plain writes and invalidates
   stale plain reads on the fencing domain. *)
let fence_cell = Atomic.make 0
let fence () = ignore (Atomic.fetch_and_add fence_cell 0 : int)

(* ------------------------------------------------------------------ *)
(* Inline: binary min-heap on (at, seq). *)

let less a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && less t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && less t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t task =
  if t.len = Array.length t.heap then begin
    let heap = Array.make (max 8 (t.len * 2)) task in
    Array.blit t.heap 0 heap 0 t.len;
    t.heap <- heap
  end;
  t.heap.(t.len) <- task;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  let top = t.heap.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.heap.(0) <- t.heap.(t.len);
    sift_down t 0
  end;
  top

let run_inline t ~until =
  List.iter (push t) (List.rev t.tasks);
  while t.len > 0 && t.heap.(0).at <= until do
    let task = pop t in
    let at = task.at in
    if at > t.now then t.now <- at;
    (match t.probe with Some f -> f ~name:task.name ~now:at | None -> ());
    t.inline_steps <- t.inline_steps + 1;
    Metrics.bump "scheduler.dispatches";
    match task.step at with
    | Finished -> if Trace.on () then Trace.span Trace.Scheduler task.name ~start:at ~dur:0 []
    | Sleep_until next ->
        let next = if next > at then next else at + 1 in
        (* The dispatch span runs from the wake-up to the next wake-up
           the task asked for: in this discrete-event model a task is
           "busy" exactly until it would next act. *)
        if Trace.on () then Trace.span Trace.Scheduler task.name ~start:at ~dur:(next - at) [];
        task.at <- next;
        push t task
  done;
  t.now

(* ------------------------------------------------------------------ *)
(* Domains: the bounded-skew window protocol. *)

let frontier_of clocks =
  Array.fold_left (fun acc c -> min acc (Atomic.get c)) max_int clocks

let note_skew t skew =
  let rec bump () =
    let cur = Atomic.get t.max_skew in
    if skew > cur && not (Atomic.compare_and_set t.max_skew cur skew) then
      bump ()
  in
  if skew > 0 then bump ()

let note_last t now =
  let rec bump () =
    let cur = Atomic.get t.last in
    if now > cur && not (Atomic.compare_and_set t.last cur now) then bump ()
  in
  bump ()

(* Dispatch [task] at its published wake-up time. Exceptions retire the
   task (so it leaves the frontier and cannot wedge the window) and are
   stashed for re-raising after the join. *)
let dispatch t ~until task clock (failures : (int * exn) option Atomic.t) =
  let now = Atomic.get clock in
  Atomic.incr t.steps_total;
  note_last t now;
  match task.step now with
  | Finished -> Atomic.set clock max_int
  | Sleep_until next ->
      let next = if next > now then next else now + 1 in
      Atomic.set clock (if next > until then max_int else next)
  | exception exn ->
      Atomic.set clock max_int;
      let rec stash () =
        match Atomic.get failures with
        | Some (seq, _) when seq <= task.seq -> ()
        | cur ->
            if not (Atomic.compare_and_set failures cur (Some (task.seq, exn)))
            then stash ()
      in
      stash ()

let run_domains t ~until n failures =
  let tasks = Array.of_list (List.rev t.tasks) in
  let clocks =
    Array.map (fun task -> Atomic.make (if task.at > until then max_int else task.at)) tasks
  in
  let body did () =
    let mine =
      Array.of_list (List.filter (fun task -> task.seq mod n = did) (Array.to_list tasks))
    in
    let spins = ref 0 in
    let continue = ref (Array.length mine > 0) in
    while !continue do
      (* Earliest of my own live tasks. *)
      let best = ref None in
      Array.iter
        (fun task ->
          let c = Atomic.get clocks.(task.seq) in
          if c <> max_int then
            match !best with
            | Some (bc, _) when bc <= c -> ()
            | _ -> best := Some (c, task))
        mine;
      match !best with
      | None -> continue := false
      | Some (wake, task) ->
          let frontier = frontier_of clocks in
          Atomic.set t.frontier_cache frontier;
          if wake <= frontier + t.window then begin
            spins := 0;
            note_skew t (wake - frontier);
            dispatch t ~until task clocks.(task.seq) failures
          end
          else begin
            (* Ahead of the window: back off until the frontier domain
               catches up. Spin politely first, then nap so a long
               straggler step doesn't burn a core. *)
            incr spins;
            if !spins < 256 then Domain.cpu_relax ()
            else begin
              spins := 0;
              Unix.sleepf 20e-6
            end
          end
    done
  in
  let workers = Array.init n (fun did -> Domain.spawn (body did)) in
  Array.iter Domain.join workers;
  Atomic.get t.last

let run t ~until =
  if t.started then invalid_arg "Exec.run: already run";
  t.started <- true;
  let settle () =
    t.finished <- true;
    Atomic.set t.frontier_cache until
  in
  match t.substrate with
  | Inline ->
      let last = run_inline t ~until in
      settle ();
      last
  | Domains n ->
      let failures = Atomic.make None in
      let last = run_domains t ~until n failures in
      settle ();
      Option.iter (fun (_, exn) -> raise exn) (Atomic.get failures);
      last
