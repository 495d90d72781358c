(* Crypto substrate against published test vectors. *)

open Podopt_crypto

let test_des_classic_vector () =
  (* the worked example from the DES standard literature *)
  let key = 0x133457799BBCDFF1L in
  let pt = 0x0123456789ABCDEFL in
  let ct = Des.encrypt_block_raw ~key pt in
  Alcotest.(check string) "ciphertext" "85e813540f0ab405" (Printf.sprintf "%016Lx" ct);
  Alcotest.(check string) "decrypt back" (Printf.sprintf "%016Lx" pt)
    (Printf.sprintf "%016Lx" (Des.decrypt_block_raw ~key ct))

let test_des_zero_vector () =
  let key = 0x0000000000000000L in
  let ct = Des.encrypt_block_raw ~key 0L in
  Alcotest.(check string) "all-zero" "8ca64de9c1b123a7" (Printf.sprintf "%016Lx" ct)

let test_des_weak_key_ones () =
  let key = 0xFFFFFFFFFFFFFFFFL in
  let ct = Des.encrypt_block_raw ~key 0xFFFFFFFFFFFFFFFFL in
  Alcotest.(check string) "all-ones" "7359b2163e4edc58" (Printf.sprintf "%016Lx" ct)

let test_des_ecb_roundtrip () =
  let ks = Des.key_of_bytes (Bytes.of_string "8bytekey") in
  List.iter
    (fun msg ->
      let pt = Bytes.of_string msg in
      let ct = Des.encrypt_ecb ks pt in
      Alcotest.(check string) "roundtrip" msg (Bytes.to_string (Des.decrypt_ecb ks ct));
      Alcotest.(check bool) "ciphertext differs" true (not (Bytes.equal ct pt)))
    [ ""; "a"; "exactly8"; "a longer message spanning several DES blocks!" ]

let test_des_cbc_roundtrip_and_chaining () =
  let ks = Des.key_of_bytes (Bytes.of_string "8bytekey") in
  let pt = Bytes.of_string (String.concat "" (List.init 8 (fun _ -> "repeated"))) in
  let cbc = Des.encrypt_cbc ks ~iv:0x0123456789ABCDEFL pt in
  let ecb = Des.encrypt_ecb ks pt in
  Alcotest.(check string) "cbc roundtrip" (Bytes.to_string pt)
    (Bytes.to_string (Des.decrypt_cbc ks ~iv:0x0123456789ABCDEFL cbc));
  (* identical plaintext blocks produce identical ECB blocks but distinct
     CBC blocks *)
  let block b i = Bytes.sub_string b (i * 8) 8 in
  Alcotest.(check string) "ecb leaks" (block ecb 0) (block ecb 1);
  Alcotest.(check bool) "cbc hides" true (block cbc 0 <> block cbc 1)

let test_des_bad_padding_rejected () =
  let ks = Des.key_of_bytes (Bytes.of_string "8bytekey") in
  Alcotest.check_raises "garbage" Des.Bad_padding (fun () ->
      ignore (Des.decrypt_ecb ks (Bytes.make 8 '\xAA')))

let test_md5_rfc1321_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Md5.hex_of_string input))
    [
      ("", "d41d8cd98f00b204e9800998ecf8427e");
      ("a", "0cc175b9c0f1b6a831c399e269772661");
      ("abc", "900150983cd24fb0d6963f7d28e17f72");
      ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
      ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
      ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "d174ab98d277d9f5a5611c2c9f419d9f" );
      ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
        "57edf4a22be3c955ac49da2e2107b67a" );
    ]

let test_md5_block_boundaries () =
  (* lengths around the 64-byte block and 56-byte padding boundary *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let d1 = Md5.hex_of_string s in
      let d2 = Md5.hex_of_string s in
      Alcotest.(check string) (Printf.sprintf "len %d deterministic" n) d1 d2;
      Alcotest.(check int) "32 hex chars" 32 (String.length d1))
    [ 54; 55; 56; 57; 63; 64; 65; 127; 128 ]

let test_hmac_md5_rfc2202 () =
  (* RFC 2202 test case 2 *)
  let mac = Hmac_md5.compute ~key:(Bytes.of_string "Jefe") (Bytes.of_string "what do ya want for nothing?") in
  Alcotest.(check string) "rfc2202 tc2" "750c783e6ab0b503eaa86e310a5db738" (Md5.to_hex mac);
  (* RFC 2202 test case 1 *)
  let key = Bytes.make 16 '\x0b' in
  let mac = Hmac_md5.compute ~key (Bytes.of_string "Hi There") in
  Alcotest.(check string) "rfc2202 tc1" "9294727a3638bb1c13f48ef8158bfc9d" (Md5.to_hex mac)

let test_hmac_verify () =
  let key = Bytes.of_string "secret" in
  let msg = Bytes.of_string "payload" in
  let mac = Hmac_md5.compute ~key msg in
  Alcotest.(check bool) "verifies" true (Hmac_md5.verify ~key ~mac msg);
  Alcotest.(check bool) "tamper detected" false
    (Hmac_md5.verify ~key ~mac (Bytes.of_string "payloax"))

let test_xor_involution () =
  let key = Bytes.of_string "k3y" in
  let data = Bytes.of_string "the quick brown fox" in
  let enc = Xor_cipher.encrypt ~key data in
  Alcotest.(check bool) "changed" true (not (Bytes.equal enc data));
  Alcotest.(check string) "involution" (Bytes.to_string data)
    (Bytes.to_string (Xor_cipher.decrypt ~key enc))

(* Two domains released by one barrier compute the same CRC at once.
   Listed first in the suite so that, run alone, this is the table's
   first use: a lazily built table raises [CamlinternalLazy.Undefined]
   when two domains force it together.  Workers only record results;
   the assertions run here, since Alcotest is not domain-safe. *)
let test_crc32_two_domains () =
  let go = Podopt_exec.Barrier.create ~parties:2 in
  let worker () =
    Domain.spawn (fun () ->
        Podopt_exec.Barrier.await go;
        match Crc32.of_string "123456789" with
        | crc -> Ok crc
        | exception e -> Error (Printexc.to_string e))
  in
  let a = worker () and b = worker () in
  List.iter
    (fun d ->
      match Domain.join d with
      | Ok crc -> Alcotest.(check int) "check value" 0xCBF43926 crc
      | Error e -> Alcotest.fail ("CRC-32 raised on a worker domain: " ^ e))
    [ a; b ]

let test_crc32_vectors () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.of_string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.of_string "")

let test_prims_available () =
  Prims.install ();
  Prims.install ();
  (* idempotent *)
  let open Podopt_hir in
  let r =
    Prim.apply "crc32" [ Value.Bytes (Bytes.of_string "123456789") ]
  in
  Alcotest.(check bool) "crc32 prim" true (r = Value.Int 0xCBF43926);
  match
    Prim.apply "des_encrypt"
      [ Value.Bytes (Bytes.of_string "8bytekey"); Value.Bytes (Bytes.of_string "hello") ]
  with
  | Value.Bytes ct ->
    (match
       Prim.apply "des_decrypt"
         [ Value.Bytes (Bytes.of_string "8bytekey"); Value.Bytes ct ]
     with
     | Value.Bytes pt -> Alcotest.(check string) "prim roundtrip" "hello" (Bytes.to_string pt)
     | _ -> Alcotest.fail "des_decrypt type")
  | _ -> Alcotest.fail "des_encrypt type"

let suite =
  [
    Alcotest.test_case "CRC32 on two domains at once" `Quick test_crc32_two_domains;
    Alcotest.test_case "DES classic vector" `Quick test_des_classic_vector;
    Alcotest.test_case "DES zero vector" `Quick test_des_zero_vector;
    Alcotest.test_case "DES ones vector" `Quick test_des_weak_key_ones;
    Alcotest.test_case "DES ECB roundtrip" `Quick test_des_ecb_roundtrip;
    Alcotest.test_case "DES CBC chaining" `Quick test_des_cbc_roundtrip_and_chaining;
    Alcotest.test_case "DES bad padding" `Quick test_des_bad_padding_rejected;
    Alcotest.test_case "MD5 RFC1321 vectors" `Quick test_md5_rfc1321_vectors;
    Alcotest.test_case "MD5 block boundaries" `Quick test_md5_block_boundaries;
    Alcotest.test_case "HMAC-MD5 RFC2202" `Quick test_hmac_md5_rfc2202;
    Alcotest.test_case "HMAC verify" `Quick test_hmac_verify;
    Alcotest.test_case "XOR involution" `Quick test_xor_involution;
    Alcotest.test_case "CRC32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "HIR prims" `Quick test_prims_available;
  ]
