(** CRC-32 (the IEEE 802.3 polynomial, as used by zip/png/ethernet).

    Pure OCaml, table-driven, allocation-free. Used by the WAL record
    framing to detect torn or bit-flipped log frames during recovery: a
    frame whose stored checksum does not match the recomputed one marks
    the end of the trustworthy log prefix. *)

val string : string -> int
(** Checksum of a whole string, in [0, 0xffffffff]. *)

val sub : string -> pos:int -> len:int -> int
(** [sub s ~pos ~len] is [string (String.sub s pos len)], computed in
    place without copying. Raises [Invalid_argument] on a range outside
    [s]. *)

val update : int -> string -> int
(** [update crc s] extends a running checksum — [update 0 s = string s]. *)
