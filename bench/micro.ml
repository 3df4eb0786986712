(* Bechamel micro-benchmarks for vDriver's hot paths: the per-version
   operations whose costs the simulator's cost model abstracts. *)

open Bechamel
open Toolkit

let live_256 = List.init 256 (fun i -> (i * 7) + 1)
let zones_256 = Zone_set.make ~live:live_256 ~now_ts:100_000

let views_64 =
  List.init 64 (fun i ->
      let creator = 10_000 + (i * 13) in
      Read_view.make ~creator ~actives:[ creator - 5 ] ~high:creator)

let classifier = Classifier.create ()

let sample_version =
  Version.make ~rid:7 ~vs:5_000 ~ve:5_040 ~vs_time:1_000_000 ~ve_time:2_000_000 ~bytes:256
    ~payload:1

let chain_10k =
  let chain = Chain.create 0 in
  for i = 1 to 10_000 do
    ignore
      (Chain.push_newest chain
         (Version.make ~rid:0 ~vs:(i * 10) ~ve:((i + 1) * 10) ~vs_time:i ~ve_time:(i + 1)
            ~bytes:64 ~payload:i)
         ~seg_id:0)
  done;
  chain

let view_mid = Read_view.make ~creator:50_005 ~actives:[] ~high:50_005

let insert_record =
  {
    Wal_record.lsn = 123_456;
    at = 987_654_321;
    shard = 1;
    payload = Wal_record.Version_insert { tid = 40_321; rid = 7_777; value = 123_456_789 };
  }

let relocate_record =
  {
    insert_record with
    Wal_record.payload =
      Wal_record.Relocate
        {
          rid = 7_777;
          vs = 40_100;
          ve = 40_321;
          vs_time = 900_000_000;
          ve_time = 987_000_000;
          bytes = 256;
          value = 123_456_789;
          seg_id = 42;
          cls = "llt";
          lo = 40_100;
          hi = 40_400;
        };
  }

let insert_frame = Wal_record.encode insert_record
let relocate_frame = Wal_record.encode relocate_record
let zipf = Zipf.create ~n:100_000 ~s:1.2
let rng = Rng.create 1

let tests =
  Test.make_grouped ~name:"vdriver"
    [
      Test.make ~name:"zone_set.make/256-live"
        (Staged.stage (fun () -> Zone_set.make ~live:live_256 ~now_ts:100_000));
      Test.make ~name:"zone_set.prunable"
        (Staged.stage (fun () -> Zone_set.prunable zones_256 ~vs:40 ~ve:45));
      Test.make ~name:"prune.by_views/64-views"
        (Staged.stage (fun () ->
             Prune.prunable_by_views ~views:views_64 ~vs:9_000 ~ve:9_001));
      Test.make ~name:"read_view.snapshot_read"
        (Staged.stage (fun () -> Read_view.snapshot_read view_mid ~vs:40_000 ~ve:60_000));
      Test.make ~name:"classifier.classify"
        (Staged.stage (fun () ->
             Classifier.classify classifier ~llt_views:views_64 sample_version));
      Test.make ~name:"chain.find_visible/10k"
        (Staged.stage (fun () -> Chain.find_visible chain_10k view_mid));
      Test.make ~name:"mvcc_search/10k"
        (Staged.stage (fun () ->
             Mvcc_search.find_visible ~view:view_mid ~len:10_000 ~vs_of:(fun i -> (i + 1) * 10)));
      Test.make ~name:"collab.episode"
        (Staged.stage (fun () ->
             let c = Collab.create () in
             Collab.sorter c ~delete:ignore ~insert:ignore));
      Test.make ~name:"zipf.sample" (Staged.stage (fun () -> Zipf.sample zipf rng));
      Test.make ~name:"wal_record.encode/version-insert"
        (Staged.stage (fun () -> Wal_record.encode insert_record));
      Test.make ~name:"wal_record.decode/version-insert"
        (Staged.stage (fun () -> Wal_record.decode insert_frame));
      Test.make ~name:"wal_record.encode/relocate"
        (Staged.stage (fun () -> Wal_record.encode relocate_record));
      Test.make ~name:"wal_record.decode/relocate"
        (Staged.stage (fun () -> Wal_record.decode relocate_frame));
    ]

let run () =
  Common.section ~figure:"Micro" ~title:"Bechamel micro-benchmarks of vDriver primitives"
    ~expectation:
      "zone-set pruning checks are sub-microsecond; classification and \
       prune-by-views scan every LLT view (several microseconds at 64 views); \
       WAL frame encode/decode stays under a microsecond per record";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> Printf.sprintf "%.1f ns/op" e
        | Some _ | None -> "n/a"
      in
      rows := [ name; est ] :: !rows)
    results;
  Table.print ~header:[ "operation"; "cost" ] (List.sort compare !rows)
