(* Wall-clock spans around the calls the benchmark makes into each layer.

   Only traced slices build one of these. Every span name gets an
   accumulator (calls, nanoseconds, minor-heap words allocated inside
   the call). Span records are kept in memory and written out at exit:
   all of them for the coarse calls (slice, set-up, maintenance,
   checkpoint, restart, audits), and one in [sample_every] for the
   per-transaction engine calls, which number in the millions. Every
   span carries the id of the slice that caused it. *)

type acc = { mutable calls : int; mutable ns : int; mutable words : float }

type span = { name : string; slice : int; start_ns : int; dur_ns : int }

type t = {
  accs : (string, acc) Hashtbl.t;
  mutable spans : span list;
  mutable slice : int;
  origin_ns : int;
}

let sample_every = 256

let create () = { accs = Hashtbl.create 16; spans = []; slice = 0; origin_ns = Clock_ns.now () }

let acc t name =
  match Hashtbl.find_opt t.accs name with
  | Some a -> a
  | None ->
      let a = { calls = 0; ns = 0; words = 0. } in
      Hashtbl.add t.accs name a;
      a

let record t ~fine name ~start_ns ~dur_ns ~words =
  let a = acc t name in
  a.calls <- a.calls + 1;
  a.ns <- a.ns + dur_ns;
  a.words <- a.words +. words;
  if (not fine) || a.calls mod sample_every = 1 then
    t.spans <- { name; slice = t.slice; start_ns; dur_ns } :: t.spans

let timed ?(fine = false) t name f =
  let w0 = Gc.minor_words () in
  let t0 = Clock_ns.now () in
  let r = f () in
  let dur_ns = Clock_ns.now () - t0 in
  record t ~fine name ~start_ns:t0 ~dur_ns ~words:(Gc.minor_words () -. w0);
  r

let calls t name = match Hashtbl.find_opt t.accs name with Some a -> a.calls | None -> 0
let total_ns t name = match Hashtbl.find_opt t.accs name with Some a -> a.ns | None -> 0
let words t name = match Hashtbl.find_opt t.accs name with Some a -> a.words | None -> 0.

let mean_ns t name =
  match Hashtbl.find_opt t.accs name with
  | Some a when a.calls > 0 -> float_of_int a.ns /. float_of_int a.calls
  | _ -> 0.

(* The closures of [Engine.t] that do work, each behind a span. *)
let txn_calls = [ "engines.begin"; "engines.read"; "engines.write"; "engines.commit"; "engines.abort" ]

let wrap_engine t (e : Engine.t) : Engine.t =
  let fine name f = timed ~fine:true t name f in
  {
    e with
    Engine.begin_txn = (fun ~now -> fine "engines.begin" (fun () -> e.Engine.begin_txn ~now));
    read = (fun txn ~rid ~now -> fine "engines.read" (fun () -> e.Engine.read txn ~rid ~now));
    write =
      (fun txn ~rid ~payload ~now ->
        fine "engines.write" (fun () -> e.Engine.write txn ~rid ~payload ~now));
    commit = (fun txn ~now -> fine "engines.commit" (fun () -> e.Engine.commit txn ~now));
    abort = (fun txn ~now -> fine "engines.abort" (fun () -> e.Engine.abort txn ~now));
    maintenance = (fun ~now -> timed t "core.maintenance" (fun () -> e.Engine.maintenance ~now));
    checkpoint =
      Option.map
        (fun f ~now -> timed t "storage.checkpoint" (fun () -> f ~now))
        e.Engine.checkpoint;
    restart =
      Option.map (fun f ~now -> timed t "storage.restart" (fun () -> f ~now)) e.Engine.restart;
  }

let write_chrome t path =
  let event s =
    Jsonx.Obj
      [
        ("name", Jsonx.Str s.name);
        ("ph", Jsonx.Str "X");
        ("ts", Jsonx.Float (float_of_int (s.start_ns - t.origin_ns) /. 1e3));
        ("dur", Jsonx.Float (float_of_int s.dur_ns /. 1e3));
        ("pid", Jsonx.Int 1);
        ("tid", Jsonx.Int s.slice);
        ("args", Jsonx.Obj [ ("slice", Jsonx.Int s.slice) ]);
      ]
  in
  Obs_export.write_file path
    (Jsonx.Obj
       [
         ("traceEvents", Jsonx.Arr (List.rev_map event t.spans));
         ("sampleEvery", Jsonx.Int sample_every);
       ])
