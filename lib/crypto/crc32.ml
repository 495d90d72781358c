(* CRC-32 (IEEE 802.3 polynomial, reflected), used by CTP segments as a
   payload checksum.

   The table is built eagerly at module initialisation: a [lazy] forced
   from two domains at once raises [CamlinternalLazy.Undefined], and
   checkpoints and the replay differ compute CRCs on worker domains. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let compute (data : bytes) : int =
  let crc = ref 0xFFFFFFFF in
  Bytes.iter
    (fun ch -> crc := table.((!crc lxor Char.code ch) land 0xFF) lxor (!crc lsr 8))
    data;
  !crc lxor 0xFFFFFFFF

let of_string (s : string) : int = compute (Bytes.of_string s)
