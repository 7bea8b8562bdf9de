(* Word arithmetic is done in native ints masked to 32 bits, which is both
   simpler and faster than boxed [Int32] on a 64-bit host. *)

let digest_size = 32
let mask32 = 0xFFFFFFFF

(* A 32-bit word side by side with a copy of itself: [(dup x lsr n) land
   mask32] is [x] rotated right by [n] (for n <= 30, which covers every
   rotation below), one shift instead of two.  The sigmas below skip that
   mask: the low 32 bits of a sum depend only on the low 32 bits of its
   terms, so the mask of the sum each sigma feeds clears the excess. *)
let dup x = x lor (x lsl 32)

type ctx = {
  h : int array; (* 8 words of chaining state *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* bytes processed so far *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h = Array.copy Sha2_constants.sha256_h;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let k = Sha2_constants.sha256_k

(* Compress one 64-byte block starting at [off] in [block].  The eight
   working variables travel as arguments of the tail-recursive [round], so
   they stay in registers instead of heap-allocated refs.  [w] and [k] hold
   64 words and every index below is in 0..63, hence the unchecked reads. *)
let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * t))) land mask32
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let xx = dup x and yy = dup y in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask32)
  done;
  let h = ctx.h in
  let rec round t a b c d e f g hh =
    if t = 64 then begin
      h.(0) <- (h.(0) + a) land mask32;
      h.(1) <- (h.(1) + b) land mask32;
      h.(2) <- (h.(2) + c) land mask32;
      h.(3) <- (h.(3) + d) land mask32;
      h.(4) <- (h.(4) + e) land mask32;
      h.(5) <- (h.(5) + f) land mask32;
      h.(6) <- (h.(6) + g) land mask32;
      h.(7) <- (h.(7) + hh) land mask32
    end
    else
      let ee = dup e in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = (e land f) lxor (lnot e land g) in
      let t1 = (hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t) land mask32 in
      let aa = dup a in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let maj = (a land b) lxor (a land c) lxor (b land c) in
      round (t + 1) ((t1 + s0 + maj) land mask32) a b c ((d + t1) land mask32) e f g
  in
  round 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

let update ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  (* Top up a partially filled buffer first. *)
  let pos =
    if ctx.buf_len = 0 then 0
    else begin
      let take = min (64 - ctx.buf_len) len in
      Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      if ctx.buf_len = 64 then begin
        compress ctx ctx.buf 0;
        ctx.buf_len <- 0
      end;
      take
    end
  in
  (* Whole blocks are compressed in place; [compress] only reads them. *)
  let src = Bytes.unsafe_of_string s in
  let rec blocks pos =
    if len - pos >= 64 then begin
      compress ctx src pos;
      blocks (pos + 64)
    end
    else pos
  in
  let pos = blocks pos in
  if pos < len then begin
    Bytes.blit_string s pos ctx.buf 0 (len - pos);
    ctx.buf_len <- len - pos
  end

(* Pad in the block buffer: 0x80, zeros up to byte 56 (spilling into one
   extra block when fewer than 9 bytes are free), then the bit length. *)
let final ctx =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n + 1 > 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\000';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx buf 0;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) ctx.h;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  final ctx

let digest_list parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  final ctx

let hex s = Hex.encode (digest s)
