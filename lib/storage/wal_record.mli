(** Typed logical WAL records.

    The durable log is a sequence of framed records: transaction
    lifecycle events, in-row version inserts, SIRO relocations into
    off-row segments, segment state transitions (harden / second-prune
    drop / vCutter cut) and checkpoint brackets. Each frame is a compact
    binary record carrying its LSN, the simulated timestamp, and a
    CRC-32 over the frame body so recovery can detect torn or corrupted
    tails.

    Byte layout: a 4-byte little-endian CRC-32 computed over exactly the
    bytes that follow it (the body). The body is zig-zag varints for
    [lsn], [at] and [shard], a one-byte kind tag, then the payload's
    fields in declaration order — ints as zig-zag varints, strings and
    int lists as a varint length followed by the bytes or the elements.
    A [Ckpt_end] snapshot travels as its canonical {!Jsonx} text in one
    length-prefixed string, read back only by {!Checkpoint.of_json}.

    [Relocate] frames carry the displaced version's {e precomputed}
    commit interval [(lo, hi)] (Definition 3.3's [I(v)]): replay must
    not depend on commit-log entries older than the checkpoint window. *)

type payload =
  | Txn_begin of { tid : int }
  | Txn_commit of { tid : int; cts : int }
  | Txn_abort of { tid : int; ats : int }
  | Version_insert of { tid : int; rid : int; value : int }
      (** An uncommitted in-row write (ARIES-style: logged at write
          time; it only takes effect at replay if [tid] commits). *)
  | Relocate of {
      rid : int;
      vs : int;
      ve : int;
      vs_time : int;
      ve_time : int;
      bytes : int;
      value : int;
      seg_id : int;
      cls : string;
      lo : int;
      hi : int;
    }  (** A displaced version inserted into off-row segment [seg_id]. *)
  | Seg_harden of { seg_id : int }
  | Seg_drop of { seg_id : int }  (** Second prune of a whole sealed segment. *)
  | Seg_cut of { seg_id : int }  (** vCutter cut of a hardened segment. *)
  | Ckpt_begin
  | Ckpt_end of { snapshot : Jsonx.t }  (** See {!Checkpoint}. *)
  | Prepare of { tid : int; coord : int; shards : int list }
      (** Presumed-abort 2PC, participant side: this shard holds [tid]'s
          writes ready to commit and has ceded the decision to shard
          [coord]. [shards] is the full write-participant set. A prepare
          with no later local outcome is {e in-doubt}: recovery must
          resolve it from the coordinator's log (commit iff a durable
          {!Coord_commit} exists; otherwise presumed abort). *)
  | Coord_commit of { gid : int; cts : int; shards : int list }
      (** Coordinator decision record — the 2PC commit point. Forced to
          the coordinator shard's log {e before} any participant applies
          the commit locally. *)
  | Coord_abort of { gid : int }
      (** Coordinator abort decision. Informational under presumed
          abort (absence of a decision means abort) — logged unforced. *)
  | Ack of { gid : int; shard : int }
      (** Coordinator-side note that participant [shard] has durably
          applied the decision. *)
  | Forget of { gid : int }
      (** All participants acked — the coordinator drops [gid] from its
          in-doubt table and need answer no more queries about it. *)
  | Promote of { epoch : int; node : int }
      (** Replication fencing marker: node [node] took over as this
          shard's primary for replication epoch [epoch]. Forced to the
          adopted log at promotion, so the new timeline durably records
          where the old primary's authority ended — frames and votes
          from earlier epochs are refused from here on. *)
  | Rep_ack of { epoch : int; node : int; upto : int }
      (** Primary-side note that backup [node] has durably mirrored the
          log through LSN [upto] under epoch [epoch] — the ship/ack
          watermark trail. Logged unforced; replay ignores it. *)

type t = { lsn : int; at : int; shard : int; payload : payload }
(** [shard] namespaces the frame: each shard's pipeline logs into its
    own WAL with its own LSN space, and recovery refuses frames whose
    tag does not match the log being analyzed (cross-shard frame
    interleaving is corruption, not data). *)

val kind_name : payload -> string

val encode : t -> string
(** The binary frame: CRC-32 of the body, then the body. *)

val encode_with_bad_crc : t -> string
(** Same frame with a deliberately wrong checksum — the chaos harness
    uses it to fabricate torn tails that honest recovery must refuse. *)

val decode : ?check_crc:bool -> string -> (t, string) result
(** Verify, then parse, one frame. Total: a checksum mismatch,
    truncation, trailing bytes, an unknown kind tag or a length running
    past the frame is an [Error], never an exception.
    [~check_crc:false] skips the checksum and parses whatever body is
    there — the sabotage knob recovery must {e not} use; it still
    rejects frames whose body does not parse. *)
