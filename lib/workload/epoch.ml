(* The generate-then-merge epoch driver shared by Kg_workload.Mutator
   and Kg_serve: flat per-domain op buffers, the run-length schedule
   merge, the apply and the run loop, all on the calling domain. The
   callers supply only generation (and apply-side hooks); the
   determinism argument is spelled out in epoch.mli.

   Steady state allocates nothing on the host: the op buffers, the run
   schedule and the per-domain epoch-allocation tables are reused
   across epochs and only ever grow. *)

open Kg_util
module O = Kg_heap.Object_model
module Rt = Kg_gc.Runtime

(* ------------------------------------------------------------------ *)
(* Flat op buffers                                                     *)

(* Op tags and layouts (ints after the tag; floats in the parallel
   float array):
     alloc       size heat ref_fields   | life
     write_ref   src tgt                |
     write_prim  tgt                    |
     read_burst  tgt words              |
     mark        kind                   | payload
   Targets are ints: > 0 an object, < 0 pending allocation [-x - 1] of
   the issuing domain this epoch, 0 none. *)
let tag_alloc = 0
let tag_write_ref = 1
let tag_write_prim = 2
let tag_read_burst = 3
let tag_mark = 4
let max_op_ints = 4

type ops = {
  mutable ints : int array;
  mutable ilen : int;
  mutable floats : float array;
  mutable flen : int;
  mutable count : int;  (* ops *)
  mutable pending : int;  (* allocations *)
}

let none = 0
let[@inline] pending_target i = -(i + 1)
let[@inline] is_pending x = x < 0

let create_ops () =
  { ints = Array.make 1024 0; ilen = 0; floats = Array.make 128 0.0; flen = 0; count = 0; pending = 0 }

let clear_ops b =
  b.ilen <- 0;
  b.flen <- 0;
  b.count <- 0;
  b.pending <- 0

(* Room for one more op: at most [max_op_ints] ints and one float. *)
let[@inline] reserve b =
  if b.ilen + max_op_ints > Array.length b.ints then begin
    let a = Array.make (2 * Array.length b.ints) 0 in
    Array.blit b.ints 0 a 0 b.ilen;
    b.ints <- a
  end;
  if b.flen = Array.length b.floats then begin
    let a = Array.make (2 * Array.length b.floats) 0.0 in
    Array.blit b.floats 0 a 0 b.flen;
    b.floats <- a
  end;
  b.count <- b.count + 1

let[@inline] put b x =
  Array.unsafe_set b.ints b.ilen x;
  b.ilen <- b.ilen + 1

let[@inline] put_float b x =
  Array.unsafe_set b.floats b.flen x;
  b.flen <- b.flen + 1

let heat_code = function O.Cold -> 0 | O.Warm -> 1 | O.Hot -> 2
let heat_of_code = function 0 -> O.Cold | 1 -> O.Warm | _ -> O.Hot

let alloc b ~size ~heat ~life ~ref_fields =
  reserve b;
  put b tag_alloc;
  put b size;
  put b (heat_code heat);
  put b ref_fields;
  put_float b life;
  let p = b.pending in
  b.pending <- p + 1;
  pending_target p

let write_ref b ~src ~tgt =
  reserve b;
  put b tag_write_ref;
  put b src;
  put b tgt

let write_prim b tgt =
  reserve b;
  put b tag_write_prim;
  put b tgt

let read_burst b tgt ~words =
  reserve b;
  put b tag_read_burst;
  put b tgt;
  put b words

let mark b kind payload =
  reserve b;
  put b tag_mark;
  put b kind;
  put_float b payload

(* ------------------------------------------------------------------ *)
(* The epoch driver                                                    *)

type t = {
  n : int;
  sched : Rng.t;
  bufs : ops array;
  (* The run schedule: [nruns] (domain, take) pairs, flattened. *)
  mutable runs : int array;
  mutable nruns : int;
  (* Scratch for merge and apply, one slot per domain. *)
  pos : int array;
  alive : int array;
  fpos : int array;
  (* Objects each domain's allocations materialised this epoch, in
     allocation order: pending target [-i - 1] is [allocs.(d).(i)]. *)
  allocs : int array array;
  nallocs : int array;
  (* Epoch-start snapshot, the read-only state generation may use. *)
  mutable snap_now : float;
  snap_free : int array;
}

let create ~n ~sched =
  if n <= 0 then invalid_arg "Epoch.create: n must be positive";
  {
    n;
    sched;
    bufs = Array.init n (fun _ -> create_ops ());
    runs = Array.make 256 0;
    nruns = 0;
    pos = Array.make n 0;
    alive = Array.make n 0;
    fpos = Array.make n 0;
    allocs = Array.init n (fun _ -> Array.make 64 0);
    nallocs = Array.make n 0;
    snap_now = 0.0;
    snap_free = Array.make n 0;
  }

let now e = e.snap_now
let nursery_free e d = e.snap_free.(d)

let snapshot e rt =
  e.snap_now <- Rt.now rt;
  for d = 0 to e.n - 1 do
    e.snap_free.(d) <- Rt.nursery_free ~domain:d rt
  done

let push_run e d take =
  let k = 2 * e.nruns in
  if k > 0 && e.runs.(k - 2) = d then e.runs.(k - 1) <- e.runs.(k - 1) + take
  else begin
    if k + 2 > Array.length e.runs then begin
      let a = Array.make (2 * Array.length e.runs) 0 in
      Array.blit e.runs 0 a 0 k;
      e.runs <- a
    end;
    e.runs.(k) <- d;
    e.runs.(k + 1) <- take;
    e.nruns <- e.nruns + 1
  end

(* Interleave the domains' op streams: repeatedly draw a domain with
   ops remaining and a chunk length (1–8) from the schedule PRNG, and
   take that many ops from it. Only op counts matter, so the schedule
   is recorded as (domain, take) runs — consecutive runs of one domain
   coalesce — and apply walks the buffers along it. Per-domain order is
   preserved. *)
let merge e =
  let pos = e.pos and alive = e.alive in
  let remaining = ref 0 in
  for d = 0 to e.n - 1 do
    pos.(d) <- 0;
    remaining := !remaining + e.bufs.(d).count
  done;
  e.nruns <- 0;
  while !remaining > 0 do
    let na = ref 0 in
    for d = 0 to e.n - 1 do
      if pos.(d) < e.bufs.(d).count then begin
        alive.(!na) <- d;
        incr na
      end
    done;
    let d = alive.(Rng.int e.sched !na) in
    let chunk = 1 + Rng.int e.sched 8 in
    let take = min chunk (e.bufs.(d).count - pos.(d)) in
    push_run e d take;
    pos.(d) <- pos.(d) + take;
    remaining := !remaining - take
  done

let schedule sched counts =
  let e = create ~n:(Array.length counts) ~sched in
  Array.iteri (fun d c -> e.bufs.(d).count <- c) counts;
  merge e;
  List.init e.nruns (fun r -> (e.runs.(2 * r), e.runs.((2 * r) + 1)))

let resolve e d x =
  if x >= 0 then x
  else begin
    let i = -x - 1 in
    if i >= e.nallocs.(d) then
      invalid_arg (Printf.sprintf "Epoch.resolve: domain %d has no allocation %d" d i);
    Array.unsafe_get e.allocs.(d) i
  end

let resolve_slots e d slots =
  for i = 0 to Array.length slots - 1 do
    slots.(i) <- resolve e d slots.(i)
  done

let push_alloc e d o =
  let i = e.nallocs.(d) in
  if i = Array.length e.allocs.(d) then begin
    let a = Array.make (2 * i) 0 in
    Array.blit e.allocs.(d) 0 a 0 i;
    e.allocs.(d) <- a
  end;
  e.allocs.(d).(i) <- o;
  e.nallocs.(d) <- i + 1

type hooks = {
  generate : int -> ops -> unit;
  on_alloc : int -> O.t -> unit;
  on_mark : int -> int -> float -> unit;
  barrier : unit -> unit;
}

(* Apply the merged schedule through the domain-tagged runtime
   interface. *)
let apply e rt h =
  for d = 0 to e.n - 1 do
    e.pos.(d) <- 0;
    e.fpos.(d) <- 0;
    e.nallocs.(d) <- 0
  done;
  for r = 0 to e.nruns - 1 do
    let d = e.runs.(2 * r) and take = e.runs.((2 * r) + 1) in
    let b = e.bufs.(d) in
    let ints = b.ints and floats = b.floats in
    let ip = ref e.pos.(d) and fp = ref e.fpos.(d) in
    for _ = 1 to take do
      let i = !ip in
      let tag = ints.(i) in
      if tag = tag_alloc then begin
        let life = floats.(!fp) in
        ip := i + 4;
        incr fp;
        let death = Rt.now rt +. life in
        let o =
          Rt.alloc ~domain:d rt ~size:ints.(i + 1) ~heat:(heat_of_code ints.(i + 2)) ~death
            ~ref_fields:ints.(i + 3)
        in
        push_alloc e d o;
        h.on_alloc d o
      end
      else if tag = tag_write_ref then begin
        ip := i + 3;
        Rt.write_ref ~domain:d rt ~src:(resolve e d ints.(i + 1)) ~tgt:(resolve e d ints.(i + 2))
      end
      else if tag = tag_write_prim then begin
        ip := i + 2;
        Rt.write_prim ~domain:d rt (resolve e d ints.(i + 1))
      end
      else if tag = tag_read_burst then begin
        ip := i + 3;
        Rt.read_burst ~domain:d rt (resolve e d ints.(i + 1)) ints.(i + 2)
      end
      else begin
        ip := i + 2;
        let payload = floats.(!fp) in
        incr fp;
        h.on_mark d ints.(i + 1) payload
      end
    done;
    e.pos.(d) <- !ip;
    e.fpos.(d) <- !fp
  done

let run e rt h ~until =
  while Rt.now rt < until do
    snapshot e rt;
    Array.iter clear_ops e.bufs;
    for d = 0 to e.n - 1 do
      h.generate d e.bufs.(d)
    done;
    merge e;
    apply e rt h;
    h.barrier ()
  done
