(** Log analysis for restart recovery — and the independent oracle the
    post-recovery invariants check the engine against.

    A {!tracker} scans a log's surviving frames in LSN order, decoding and
    CRC-verifying each, and stops for good at the first bad frame: a torn
    or bit-flipped record ends the trustworthy prefix. It folds the
    prefix into a running replay state — checkpoint base plus redo,
    re-based at every complete checkpoint — from which {!current} derives
    the {e expected} post-recovery state: transaction outcomes, losers to
    roll back, the committed in-row image, and the surviving off-row
    segments with their contents.

    The tracker keeps a cursor: {!advance} decodes only the frames
    appended since the last call, and re-folds from LSN 1 when
    {!Wal.generation} says the device changed underneath it (crash,
    truncation, adoption, corruption, retagging). {!analyze} and
    {!expect} are a fresh tracker folded once; the log-level oracles in
    {!Invariant} keep one tracker per shard across a run, so a periodic
    audit costs the frames appended since the previous one.

    The engine's restart path and the {!Invariant} checker both consume
    this module — the engine with its configured knobs (including the
    [skip_tail_check] sabotage), the checker always honestly — which is
    what makes an unsound recovery provably catchable. *)

type seg_build = {
  seg_id : int;
  cls : string;
  hardened : bool;
  versions : Checkpoint.seg_version list;  (** Relocation order. *)
}

type expectation = {
  committed : (int * int) list;
      (** [(tid, cts)], sorted — the checkpoint window, redo outcomes,
          and the creators of recovered rows. *)
  aborted : (int * int) list;
  losers : int list;  (** Began, no durable outcome: must be rolled back. *)
  rows : Checkpoint.row list;  (** Expected in-row image, sorted by rid. *)
  segments : seg_build list;  (** Surviving segments, sorted by id. *)
  dead_segs : int list;  (** Dropped or cut — must not be resurrected. *)
  next_seg_id : int;
  oracle_floor : int;  (** Timestamp oracle must resume at or above this. *)
  replayed : int;  (** Redo records applied past the checkpoint. *)
  indoubt : (int * int) list;
      (** [(tid, coord_shard)], sorted — 2PC-prepared here with no local
          outcome. Resolved through [?resolve] when given; the
          unresolved remainder stays in {!field-losers} (presumed
          abort). *)
  resolved_commits : (int * int) list;
      (** [(tid, cts)] in-doubt transactions the resolver committed —
          their pending writes are folded into {!field-rows}. *)
  decisions : (int * int) list;
      (** [(gid, cts)] coordinator commit decisions durable in {e this}
          log (checkpoint window plus replayed [Coord_commit] records) —
          what other shards' resolvers come asking for. *)
}

(** {1 Incremental analysis} *)

type tracker

val tracker : ?check_crc:bool -> ?keep_records:bool -> Wal.t -> tracker
(** An empty fold over [wal]; nothing is read until {!advance}.
    [~check_crc:false] is the sabotage knob: frames are still parsed but
    checksums are ignored, so a fabricated torn tail gets replayed. A
    frame whose shard tag differs from [Wal.shard wal] ends the
    trustworthy prefix regardless of the knob: shard logs are disjoint
    LSN namespaces and interleaved foreign frames are corruption.
    [~keep_records:true] retains the decoded prefix for {!analyze}. *)

val advance : tracker -> unit
(** Fold in the frames past the cursor ({!Wal.frames_from}). If the
    device's {!Wal.generation} moved since the fold began, start over
    from LSN 1 first. After an untrustworthy frame nothing more is read
    until the generation moves. *)

type anchor =
  | Last_checkpoint  (** The last complete checkpoint: what recovery replays from. *)
  | Before_promotion
      (** The last complete checkpoint not written right after a
          [Promote] frame. A promotion's recovery checkpoint snapshots
          the global oracle frontier an instant after the device was
          adopted; anchoring before it replays the adopted suffix
          instead, which is what the no-committed-loss oracle needs. *)

val current :
  ?anchor:anchor ->
  ?full:bool ->
  ?resolve:(tid:int -> coord:int -> int option) ->
  tracker ->
  expectation
(** The expectation of the prefix folded so far, with the state replayed
    from [anchor] (default [Last_checkpoint]) and in-doubt transactions
    resolved through [resolve] (see {!expect}); the running state is not
    changed. [~full:false] (default [true]) leaves [rows], [segments],
    [dead_segs] and [decisions] empty — the outcome oracles read only
    the outcome fields and the frontier. *)

val commits :
  ?anchor:anchor -> ?resolve:(tid:int -> coord:int -> int option) -> tracker -> int -> bool
(** [commits t] is membership in [(current t).committed] (same
    [anchor] and [resolve]) without building the list: one pass over
    the in-row image instead of a sort of the whole commit window. *)

val checkpoint : ?anchor:anchor -> tracker -> (int * Checkpoint.t) option
(** The checkpoint [anchor] selects, with its [Ckpt_end] LSN. *)

val decision : tracker -> gid:int -> int option
(** [Some cts] iff a [Coord_commit] for [gid] is in the trustworthy
    prefix or in the last checkpoint's decision window (the prefix
    wins) — what a recovering participant gets from this coordinator. *)

val iter_prepared_commits : tracker -> (tid:int -> coord:int -> unit) -> unit
(** Every [Txn_commit] frame of the prefix whose transaction was
    prepared at that point, in LSN order, with the coordinator it
    prepared under: by the last [Prepare] before the commit or, failing
    one, by the last checkpoint's prepared table. *)

val decoded : tracker -> int
(** Frames decoded over the tracker's life, re-reads included. *)

val rewound : tracker -> int
(** Frames decoded before a generation change made the tracker start
    over: [decoded t <= rewound t + Wal.frame_count wal]. *)

(** {1 One-shot analysis} *)

type analysis = {
  records : Wal_record.t list;  (** Decoded trustworthy prefix, LSN order. *)
  survivors : int;
  truncate_lsn : int;  (** LSN of the last trustworthy frame (0 if none). *)
  dropped : int;  (** Frames rejected at the tail. *)
  checkpoint : (int * Checkpoint.t) option;
      (** Last complete checkpoint in the prefix, with its [Ckpt_end] LSN. *)
  folded : tracker;  (** The fold {!expect} finishes; never advanced again. *)
}

val analyze : ?check_crc:bool -> Wal.t -> analysis
(** A fresh tracker (see {!tracker} for [check_crc]) folded once over
    the whole log. *)

val expect : ?resolve:(tid:int -> coord:int -> int option) -> analysis -> expectation
(** [current analysis.folded]. [resolve ~tid ~coord] answers an
    in-doubt participant from the coordinator shard's durable state:
    [Some cts] iff a [Coord_commit] for [tid] survived in shard
    [coord]'s log. Without a resolver every in-doubt transaction is
    presumed aborted. *)
