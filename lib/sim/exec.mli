(** Execution substrate: spawn / serialize / run / now / fence.

    Processes (transaction workers, long-lived transaction drivers,
    background cleaners, metric samplers, fault injectors) are tasks: a
    step function plus a virtual wake-up time. A step is called when its
    wake-up time is reached, does one unit of work and reports when the
    task next wants to run. Two substrates run the same task set:

    - {!inline} is the discrete-event simulator (Sim mode). It steps
      every task on the calling thread, always picking the globally
      earliest wake-up from a binary min-heap, ties broken by spawn
      order, so whole runs are deterministic. Only this substrate has
      the stop-the-world hooks: a dispatch probe ({!set_probe}) called
      before every step, a [scheduler.dispatches] counter and a
      [Trace.Scheduler] span per dispatch.
    - {!domains} maps tasks round-robin onto [n] real [Domain.t]s. Each
      domain steps its own tasks in local wake-up order, but a task may
      only be stepped while its wake-up time is within [window] of the
      global frontier (the minimum published clock over all live
      tasks): a conservative time-window parallel simulation. Clocks
      are published through [Atomic] cells — the publish/consume points
      of the memory-ordering argument in DESIGN §4f — and a domain that
      runs ahead of the window yields, then naps, until the frontier
      catches up.

    Progress on domains: the task holding the global minimum clock is
    always eligible, so some domain can always step; a task whose step
    raises is retired (its clock leaves the frontier) and the exception
    is re-raised from {!run} after every domain has joined, so a crashed
    task can never wedge the window for the others. *)

type t

type outcome =
  | Sleep_until of Clock.time  (** run me again no earlier than this *)
  | Finished  (** retire this task *)

type mode =
  | Sim  (** the deterministic discrete-event substrate, {!inline} *)
  | Domains of { domains : int }  (** {!domains} with the default window *)

val create : mode -> t

val inline : unit -> t
(** The deterministic single-thread substrate. *)

val domains : ?window:Clock.time -> domains:int -> unit -> t
(** Real-parallelism substrate on [domains] OCaml 5 domains (at least
    1, else [Invalid_argument]). [window] is the maximum virtual-time
    skew a task may run ahead of the global frontier. The default
    (25 us, about a quarter of a short-transaction latency) was
    calibrated on the differential harness: at 2 ms the out-of-order
    latch arrivals inflate queueing enough to depress throughput ~30%
    below the Sim model, and even at 100 us a 3-domain run on a hot
    small table still lands ~20% low (the inflated queueing shows up
    as a deeper chain peak and fatter latency tail); at 25 us every
    differential case agrees to well under 1% while still letting
    every runnable task proceed concurrently. *)

val spawn : t -> name:string -> at:Clock.time -> (Clock.time -> outcome) -> unit
(** Register a task whose step receives its wake-up time. A
    [Sleep_until t'] with [t' <= now] advances the clock by 1 ns to
    guarantee progress. All spawns must precede {!run}; spawning after
    the run has started raises. *)

val serialized : t -> (Clock.time -> outcome) -> Clock.time -> outcome
(** [serialized t step] runs each call of [step] as one critical section
    of [t]'s big lock: a real [Mutex] on the domain substrate, the step
    itself (no wrapper) inline, where a total order already serializes
    every step. Wrap a step once, at spawn. *)

val set_probe : t -> (name:string -> now:Clock.time -> unit) -> unit
(** Install the dispatch probe: called immediately before every step
    with the task name and its wake-up time. This is the fault
    harness's consultation point — a fault plan armed here sees every
    scheduling decision and can inject per-step faults
    deterministically. The probe must not spawn. Inline only
    ([Invalid_argument] on domains). *)

val run : t -> until:Clock.time -> Clock.time
(** Execute every task until it finishes or its next wake-up exceeds
    [until]. Returns the largest wake-up time dispatched. Can only be
    called once per [t].

    Inline, a step that raises aborts the run at once with that
    exception. On the domain substrate this spawns the domains, drives
    the window protocol and joins them all before returning (so every
    task-local effect is visible to the caller afterwards); if any task
    raised, the first such exception (by task spawn order) is re-raised
    after the join. *)

val now : t -> Clock.time
(** The largest wake-up time dispatched so far: inline, the current
    simulated time. *)

val frontier : t -> Clock.time
(** The global frontier: minimum published clock over unfinished tasks
    ([until] passed to {!run} once every task has retired). Monotone,
    safe to read from any domain. *)

val fence : unit -> unit
(** Full memory fence (a sequentially-consistent atomic round-trip).
    The publish points of the Domains runner run their updates through
    this before they are considered observable. *)

val max_skew_observed : t -> Clock.time
(** Largest [wake-up - frontier] skew any dispatched step ran at on the
    domain substrate; the window-respect tests assert it never exceeds
    [window]. *)

val steps : t -> int
(** Total task steps dispatched (across all domains). *)
