(* CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xedb88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let checksum crc s pos len =
  let crc = ref (crc lxor 0xffffffff) in
  for i = pos to pos + len - 1 do
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xffffffff

let update crc s = checksum crc s 0 (String.length s)
let string s = update 0 s

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.sub";
  checksum 0 s pos len
