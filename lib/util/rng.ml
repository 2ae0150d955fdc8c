(* Backed by the stdlib's LXM generator (Random.State): deterministic
   from a seed, splittable, and — unlike a hand-rolled xoshiro on boxed
   Int64s — allocation-free on the [int]/[float] fast paths, which the
   simulator hits several times per heap access.

   Each generator also carries a small cache of Zipf envelopes: the
   bounds [h_x1] and [h_n] depend only on (n, s), and a generator is
   only ever driven by one domain at a time, so a per-generator cache
   is safe when the engine pool runs simulations on several domains at
   once. *)

let zipf_slots = 4
let zipf_stride = 4  (* per slot: n, s, h_x1, h_n *)

type t = {
  st : Random.State.t;
  zipf_env : float array;  (* [zipf_slots] envelopes, [zipf_stride] floats each *)
  mutable zipf_next : int;  (* round-robin victim *)
}

(* n = 0 marks an empty slot: [zipf] never looks up n < 2. *)
let wrap st = { st; zipf_env = Array.make (zipf_slots * zipf_stride) 0.0; zipf_next = 0 }

let of_seed seed = wrap (Random.State.make [| seed |])
let split t = wrap (Random.State.split t.st)
let copy t = wrap (Random.State.copy t.st)
let bits64 t = Random.State.bits64 t.st

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Random.State.int t.st bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

(* [Random.State.float], bit for bit, without its boxed result: the
   stdlib's recursive [rawfloat] cannot be inlined, so every draw
   through it allocates. *)
let float t bound =
  let n = ref (Int64.shift_right_logical (Random.State.bits64 t.st) 11) in
  while !n = 0L do
    n := Int64.shift_right_logical (Random.State.bits64 t.st) 11
  done;
  Int64.to_float !n *. 0x1.p-53 *. bound

let bool t = Random.State.bool t.st
let bernoulli t p = float t 1.0 < p

let exponential t mean =
  let u = float t 1.0 in
  -.mean *. log (1.0 -. u)

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p not in (0,1]";
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    int_of_float (floor (log (1.0 -. u) /. log (1.0 -. p)))

let pareto t ~alpha ~xmin =
  let u = float t 1.0 in
  xmin /. ((1.0 -. u) ** (1.0 /. alpha))

(* H, the integral of the Zipf density envelope, and its inverse. *)
let[@inline] zipf_h s x = if s = 1.0 then log x else (x ** (1.0 -. s)) /. (1.0 -. s)
let[@inline] zipf_h_inv s y = if s = 1.0 then exp y else ((1.0 -. s) *. y) ** (1.0 /. (1.0 -. s))

(* Offset of the cached envelope for (n, s), computing it into the
   next round-robin slot on a miss. *)
let zipf_envelope t n s =
  let env = t.zipf_env in
  let nf = float_of_int n in
  let hit = ref (-1) in
  for i = 0 to zipf_slots - 1 do
    let o = i * zipf_stride in
    if env.(o) = nf && env.(o + 1) = s then hit := o
  done;
  if !hit >= 0 then !hit
  else begin
    let o = t.zipf_next * zipf_stride in
    t.zipf_next <- (t.zipf_next + 1) mod zipf_slots;
    env.(o) <- nf;
    env.(o + 1) <- s;
    env.(o + 2) <- zipf_h s 1.5 -. 1.0;
    env.(o + 3) <- zipf_h s (nf +. 0.5);
    o
  end

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if n = 1 then 0
  else if s = 0.0 then int t n
  else begin
    (* Rejection-inversion (Hörmann & Derflinger): invert H and reject
       against the true probability mass. *)
    let o = zipf_envelope t n s in
    let h_x1 = t.zipf_env.(o + 2) and h_n = t.zipf_env.(o + 3) in
    let rank = ref 0 and found = ref false in
    while not !found do
      let u = h_x1 +. (float t 1.0 *. (h_n -. h_x1)) in
      let x = zipf_h_inv s u in
      let k = Float.max 1.0 (Float.round x) in
      if k -. x <= 0.5 || u >= zipf_h s (k +. 0.5) -. (k ** -.s) then begin
        rank := int_of_float k - 1;
        found := true
      end
    done;
    !rank
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
