(* The output check must catch a wrong result.  Two corruptions, each
   in an otherwise clean optimized run, must make its digest differ from
   the optimize=false reference:

   - a payload rewritten just before dispatch ([Broker.set_tamper]);
   - a handler that computes a wrong value without raising: one
     [des_encrypt] call returns a ciphertext with a flipped bit, which
     only the handler state (the [cur_push] global) carries.

   The untampered run must match the reference. *)

open Perfbench
module Broker = Harness.B.Broker
module Prim = Podopt_hir.Prim
module V = Podopt_hir.Value

let w =
  {
    Workloads.seccomm_closed with
    Workloads.profile =
      { Workloads.seccomm_closed.Workloads.profile with Harness.B.Loadgen.sessions = 4; ops = 6 };
  }

let seed = 7

(* [armed] is set after the set-up, so only round 0 sees the tampering. *)
let optimized_digest ?tamper ?(armed = ref false) () =
  let s = Harness.setup w ~seed ~optimize:true in
  Broker.set_tamper s.Harness.broker tamper;
  armed := true;
  let c = Harness.checked_round w s.Harness.broker in
  Broker.shutdown s.Harness.broker;
  c.Harness.digest

let flip_byte b =
  let b = Bytes.copy b in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
  b

let flip_payload (pkt : Podopt_net.Packet.t) =
  if pkt.Podopt_net.Packet.src = "s001" && pkt.Podopt_net.Packet.seq = 3 then
    flip_byte pkt.Podopt_net.Packet.payload
  else pkt.Podopt_net.Packet.payload

(* Re-register [des_encrypt] so that its [nth] call once armed returns
   a wrong ciphertext; the original is put back afterwards. *)
let with_wrong_cipher ~nth f =
  Podopt_crypto.Prims.install ();
  let p = Prim.find "des_encrypt" in
  let armed = ref false and calls = ref 0 in
  Prim.register ~pure:p.Prim.pure ?arity:p.Prim.arity ?work:p.Prim.work p.Prim.name
    (fun args ->
      let r = p.Prim.fn args in
      if !armed then incr calls;
      match r with V.Bytes b when !calls = nth -> V.Bytes (flip_byte b) | r -> r);
  Fun.protect
    ~finally:(fun () ->
      Prim.register ~pure:p.Prim.pure ?arity:p.Prim.arity ?work:p.Prim.work p.Prim.name
        p.Prim.fn)
    (fun () -> f armed)

let () =
  let reference = Harness.reference_digest w ~seed in
  let clean = optimized_digest () in
  let tampered = optimized_digest ~tamper:flip_payload () in
  let wrong_state = with_wrong_cipher ~nth:5 (fun armed -> optimized_digest ~armed ()) in
  if clean <> reference then begin
    Printf.printf "FAIL: untampered digest %s differs from reference %s\n" clean reference;
    exit 1
  end;
  if tampered = reference then begin
    print_endline "FAIL: the output check missed a tampered payload";
    exit 1
  end;
  if wrong_state = reference then begin
    print_endline "FAIL: the output check missed a wrong handler result";
    exit 1
  end;
  print_endline
    "ok: output check matches the reference and catches a tampered payload and a wrong \
     handler result"
