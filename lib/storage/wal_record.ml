type payload =
  | Txn_begin of { tid : int }
  | Txn_commit of { tid : int; cts : int }
  | Txn_abort of { tid : int; ats : int }
  | Version_insert of { tid : int; rid : int; value : int }
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
    }
  | Seg_harden of { seg_id : int }
  | Seg_drop of { seg_id : int }
  | Seg_cut of { seg_id : int }
  | Ckpt_begin
  | Ckpt_end of { snapshot : Jsonx.t }
  | Prepare of { tid : int; coord : int; shards : int list }
  | Coord_commit of { gid : int; cts : int; shards : int list }
  | Coord_abort of { gid : int }
  | Ack of { gid : int; shard : int }
  | Forget of { gid : int }
  | Promote of { epoch : int; node : int }
  | Rep_ack of { epoch : int; node : int; upto : int }

type t = { lsn : int; at : int; shard : int; payload : payload }

let kind_name = function
  | Txn_begin _ -> "txn-begin"
  | Txn_commit _ -> "txn-commit"
  | Txn_abort _ -> "txn-abort"
  | Version_insert _ -> "version-insert"
  | Relocate _ -> "relocate"
  | Seg_harden _ -> "seg-harden"
  | Seg_drop _ -> "seg-drop"
  | Seg_cut _ -> "seg-cut"
  | Ckpt_begin -> "ckpt-begin"
  | Ckpt_end _ -> "ckpt-end"
  | Prepare _ -> "2pc-prepare"
  | Coord_commit _ -> "2pc-commit"
  | Coord_abort _ -> "2pc-abort"
  | Ack _ -> "2pc-ack"
  | Forget _ -> "2pc-forget"
  | Promote _ -> "rep-promote"
  | Rep_ack _ -> "rep-ack"

(* ------------------------------------------------------------------ *)
(* Encoder. Frame = 4-byte little-endian CRC-32 of the body, then the
   body: zig-zag varints for lsn, at, shard; a one-byte kind tag; the
   payload fields in declaration order. Strings and int lists carry a
   varint length prefix. *)

let crc_bytes = 4

let add_varint b n =
  (* [n] is a 63-bit pattern read as unsigned: at most 9 groups of 7. *)
  let n = ref n in
  while !n land lnot 0x7f <> 0 do
    Buffer.add_char b (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.unsafe_chr !n)

let add_int b n = add_varint b ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let add_string b s =
  add_varint b (String.length s);
  Buffer.add_string b s

let add_int_list b xs =
  add_varint b (List.length xs);
  List.iter (add_int b) xs

let add_payload b = function
  | Txn_begin { tid } ->
      Buffer.add_char b '\000';
      add_int b tid
  | Txn_commit { tid; cts } ->
      Buffer.add_char b '\001';
      add_int b tid;
      add_int b cts
  | Txn_abort { tid; ats } ->
      Buffer.add_char b '\002';
      add_int b tid;
      add_int b ats
  | Version_insert { tid; rid; value } ->
      Buffer.add_char b '\003';
      add_int b tid;
      add_int b rid;
      add_int b value
  | Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi } ->
      Buffer.add_char b '\004';
      add_int b rid;
      add_int b vs;
      add_int b ve;
      add_int b vs_time;
      add_int b ve_time;
      add_int b bytes;
      add_int b value;
      add_int b seg_id;
      add_string b cls;
      add_int b lo;
      add_int b hi
  | Seg_harden { seg_id } ->
      Buffer.add_char b '\005';
      add_int b seg_id
  | Seg_drop { seg_id } ->
      Buffer.add_char b '\006';
      add_int b seg_id
  | Seg_cut { seg_id } ->
      Buffer.add_char b '\007';
      add_int b seg_id
  | Ckpt_begin -> Buffer.add_char b '\008'
  | Ckpt_end { snapshot } ->
      Buffer.add_char b '\009';
      add_string b (Jsonx.to_string snapshot)
  | Prepare { tid; coord; shards } ->
      Buffer.add_char b '\010';
      add_int b tid;
      add_int b coord;
      add_int_list b shards
  | Coord_commit { gid; cts; shards } ->
      Buffer.add_char b '\011';
      add_int b gid;
      add_int b cts;
      add_int_list b shards
  | Coord_abort { gid } ->
      Buffer.add_char b '\012';
      add_int b gid
  | Ack { gid; shard } ->
      Buffer.add_char b '\013';
      add_int b gid;
      add_int b shard
  | Forget { gid } ->
      Buffer.add_char b '\014';
      add_int b gid
  | Promote { epoch; node } ->
      Buffer.add_char b '\015';
      add_int b epoch;
      add_int b node
  | Rep_ack { epoch; node; upto } ->
      Buffer.add_char b '\016';
      add_int b epoch;
      add_int b node;
      add_int b upto

let frame ~crc_mask t =
  let b = Buffer.create 48 in
  Buffer.add_string b "\000\000\000\000";
  add_int b t.lsn;
  add_int b t.at;
  add_int b t.shard;
  add_payload b t.payload;
  let f = Buffer.to_bytes b in
  let crc =
    Crc32.sub (Bytes.unsafe_to_string f) ~pos:crc_bytes ~len:(Bytes.length f - crc_bytes)
  in
  Bytes.set_int32_le f 0 (Int32.of_int (crc lxor crc_mask));
  Bytes.unsafe_to_string f

let encode t = frame ~crc_mask:0 t

(* A deliberately stale checksum: the body parses but fails
   verification — the shape of a torn sector whose payload bytes were
   written and whose checksum was not. *)
let encode_with_bad_crc t = frame ~crc_mask:0x5a5a5a5a t

(* ------------------------------------------------------------------ *)
(* Decoder. Total: every malformation — truncation, trailing bytes, an
   unknown tag, a length past the end — surfaces as [Error]. *)

exception Malformed of string

type reader = { s : string; mutable pos : int }

let byte r =
  if r.pos >= String.length r.s then raise (Malformed "truncated frame");
  let c = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  c

let varint r =
  let rec go acc shift =
    let c = byte r in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then acc
    else if shift >= 56 then raise (Malformed "varint overflow")
    else go acc (shift + 7)
  in
  go 0 0

let int r =
  let z = varint r in
  (z lsr 1) lxor (-(z land 1))

let length r =
  let n = varint r in
  if n < 0 || n > String.length r.s - r.pos then raise (Malformed "length past end of frame");
  n

let string r =
  let n = length r in
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let int_list r =
  let rec go acc k = if k = 0 then List.rev acc else go (int r :: acc) (k - 1) in
  go [] (length r)

let payload r =
  match byte r with
  | 0 ->
      let tid = int r in
      Txn_begin { tid }
  | 1 ->
      let tid = int r in
      let cts = int r in
      Txn_commit { tid; cts }
  | 2 ->
      let tid = int r in
      let ats = int r in
      Txn_abort { tid; ats }
  | 3 ->
      let tid = int r in
      let rid = int r in
      let value = int r in
      Version_insert { tid; rid; value }
  | 4 ->
      let rid = int r in
      let vs = int r in
      let ve = int r in
      let vs_time = int r in
      let ve_time = int r in
      let bytes = int r in
      let value = int r in
      let seg_id = int r in
      let cls = string r in
      let lo = int r in
      let hi = int r in
      Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi }
  | 5 -> Seg_harden { seg_id = int r }
  | 6 -> Seg_drop { seg_id = int r }
  | 7 -> Seg_cut { seg_id = int r }
  | 8 -> Ckpt_begin
  | 9 -> (
      match Jsonx.of_string (string r) with
      | Ok snapshot -> Ckpt_end { snapshot }
      | Error e -> raise (Malformed ("bad snapshot: " ^ e)))
  | 10 ->
      let tid = int r in
      let coord = int r in
      let shards = int_list r in
      Prepare { tid; coord; shards }
  | 11 ->
      let gid = int r in
      let cts = int r in
      let shards = int_list r in
      Coord_commit { gid; cts; shards }
  | 12 -> Coord_abort { gid = int r }
  | 13 ->
      let gid = int r in
      let shard = int r in
      Ack { gid; shard }
  | 14 -> Forget { gid = int r }
  | 15 ->
      let epoch = int r in
      let node = int r in
      Promote { epoch; node }
  | 16 ->
      let epoch = int r in
      let node = int r in
      let upto = int r in
      Rep_ack { epoch; node; upto }
  | tag -> raise (Malformed (Printf.sprintf "unknown record tag %d" tag))

let decode ?(check_crc = true) repr =
  let n = String.length repr in
  if n < crc_bytes then Error "truncated frame"
  else
    let stored = Int32.to_int (String.get_int32_le repr 0) land 0xffffffff in
    let computed =
      if check_crc then Crc32.sub repr ~pos:crc_bytes ~len:(n - crc_bytes) else stored
    in
    if stored <> computed then
      Error (Printf.sprintf "crc mismatch (stored %d, computed %d)" stored computed)
    else
      let r = { s = repr; pos = crc_bytes } in
      match
        let lsn = int r in
        let at = int r in
        let shard = int r in
        let payload = payload r in
        { lsn; at; shard; payload }
      with
      | t when r.pos = n -> Ok t
      | _ -> Error "trailing bytes after frame"
      | exception Malformed e -> Error e
