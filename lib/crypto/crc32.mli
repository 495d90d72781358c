(** CRC-32 (IEEE 802.3, reflected), used by CTP segments as a payload
    checksum.  [compute] of the ASCII digits "123456789" is the standard
    check value [0xCBF43926].  Safe to call from any domain, including
    several at once. *)

val compute : bytes -> int
val of_string : string -> int
