(* Monotonic wall clock in nanoseconds; allocation-free in native code. *)
let now () = Int64.to_int (Monotonic_clock.now ())
