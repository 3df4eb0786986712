(* Reference kernel: a dependent pointer chase over one random cycle in a
   Bigarray that lives off the OCaml heap, then an in-place read-write
   sweep over the same array.

   Its time is the yardstick every wall-derived metric is divided by.
   The machine this benchmark was tuned on drifts by up to +-25% over
   tens of seconds, and the drift tracks a memory-bound chase (see
   README.md). The chase alone tracks memory latency; the workload,
   which allocates heavily, also tracks memory bandwidth, so the sweep
   adds that. Timing the kernel between workload slices and scaling by
   it removes much of the drift. The kernel must not perturb what it
   normalises: it allocates zero words (checked on every call), so it
   moves neither allocation, heap size nor GC pacing. *)

open Bigarray

type t = { next : (int, int_elt, c_layout) Array1.t; hops : int }

(* 8 Mi words = 64 MiB: hop latency there is within 10% of a 256 MiB
   chase, i.e. past the cache share this VM gets, although lscpu reports
   a 300 MiB host L3. *)
let words = 8 * 1024 * 1024
let hops = 300_000
let sweeps = 2

let create () =
  let next = Array1.create int c_layout words in
  for i = 0 to words - 1 do
    Array1.unsafe_set next i i
  done;
  (* Sattolo's shuffle: a single cycle through every slot, so the chase
     never settles into a short, cache-resident loop. Fixed seed: the
     kernel is the same on every run. *)
  let rng = Random.State.make [| 0x5eed |] in
  for i = words - 1 downto 1 do
    let j = Random.State.int rng i in
    let v = Array1.unsafe_get next i in
    Array1.unsafe_set next i (Array1.unsafe_get next j);
    Array1.unsafe_set next j v
  done;
  { next; hops }

let chase t =
  let p = ref 0 in
  for _ = 1 to t.hops do
    p := Array1.unsafe_get t.next !p
  done;
  !p

(* Writes every slot back unchanged, so the cycle survives. *)
let sweep t =
  for _ = 1 to sweeps do
    for i = 0 to words - 1 do
      Array1.unsafe_set t.next i (Array1.unsafe_get t.next i)
    done
  done

let sink = ref 0

(* One timed kernel (chase, then sweep), in nanoseconds. Raises if it
   allocated. *)
let time t =
  let w0 = Gc.minor_words () in
  let t0 = Clock_ns.now () in
  let p = chase t in
  sweep t;
  let dt = Clock_ns.now () - t0 in
  let w1 = Gc.minor_words () in
  sink := p;
  if w1 <> w0 then failwith (Printf.sprintf "reference kernel allocated %.0f words" (w1 -. w0));
  dt
