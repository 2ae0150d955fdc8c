open Kg_util
open Kg_heap
module O = Object_model
module Rt = Kg_gc.Runtime

let recent_size = 512
let cold_cap = 4096
let large_min = 12 * 1024
let large_alpha = 1.3

(* Mutation debts live in a two-slot float array (write, read): a
   [mutable float] record field would box on every update. *)
let write_debt = 0
let read_debt = 1

(* One mutator stream's private state: its PRNG, its window of recently
   allocated objects and its outstanding read/write debts. The 1-domain
   sequential path runs one stream; the epoch path runs one per mutator
   domain, touched only by that domain during generation and by the
   coordinator between epochs. The recent ring holds {!Epoch} targets
   ([Epoch.none] when empty), so under the epoch protocol it also holds
   pending markers until the epoch materialises them. Pools of mature
   targets are shared (threads share data structures). *)
type stream = {
  rng : Rng.t;
  recent : int array;
  mutable recent_cursor : int;
  debts : float array;
}

(* With [threads > 1] the mutator runs the epoch protocol of {!Epoch}:
   each domain *generates* a flat op stream in parallel as a pure
   function of its stream plus a read-only snapshot, and the
   coordinator *applies* the streams sequentially in a schedule-seeded
   deterministic merge. *)
type t = {
  desc : Descriptor.t;
  rt : Rt.t;
  words : O.store;  (* the runtime's flat-word heap tables *)
  streams : stream array;  (* one per thread *)
  life : Lifetime.t;
  hot : O.t Vec.t;
  warm : O.t Vec.t;
  cold : O.t Vec.t;
  mutable allocated : int;  (* objects *)
  p_large : float;
  large_mean : float;
  live_mb : int;
  (* Multicore: *)
  nthreads : int;
  oracle : bool;  (* interleaved oracle: generate inline, no Domains *)
  sched_rng : Rng.t;  (* merge schedule; seeded independently *)
  epoch : Epoch.t;  (* op buffers and schedule, reused across runs *)
  boot_allocs_by_thread : int array;
}

let descriptor t = t.desc
let runtime t = t.rt
let thread_count t = t.nthreads
let boot_allocs_by_thread t = Array.copy t.boot_allocs_by_thread

let create ?live_mb ?(threads = 1) ?(schedule_seed = 0) ?(oracle = false) desc
    ~rt ~seed =
  (* Calibrated against the default sizes regardless of the collector
     under test: lifetimes are a workload property. *)
  let live_mb = Option.value live_mb ~default:(Descriptor.live_mb desc) in
  let life =
    Lifetime.make ~live_mb desc ~nursery_bytes:(4 * Units.mib) ~observer_bytes:(8 * Units.mib)
  in
  (* Mean of the truncated Pareto large-size distribution, to convert
     the byte fraction of large allocation into a per-object draw. *)
  let large_mean =
    let a = large_alpha and x = float_of_int large_min in
    a *. x /. (a -. 1.0)
  in
  let es = float_of_int desc.Descriptor.mean_small in
  let f = desc.Descriptor.large_frac in
  let p_large = if f <= 0.0 then 0.0 else f *. es /. (((1.0 -. f) *. large_mean) +. (f *. es)) in
  let root = Rng.of_seed seed in
  let sched_rng = Rng.of_seed schedule_seed in
  let threads = max 1 threads in
  if threads > 1 && Rt.domains rt <> threads then
    invalid_arg
      (Printf.sprintf
         "Mutator.create: %d threads need a runtime with %d domains (has %d)"
         threads threads (Rt.domains rt));
  let mk_stream _ =
    {
      rng = Rng.split root;
      recent = Array.make recent_size Epoch.none;
      recent_cursor = 0;
      debts = [| 0.0; 0.0 |];
    }
  in
  {
    desc;
    rt;
    words = Rt.words rt;
    streams = Array.init threads mk_stream;
    life;
    hot = Vec.create ();
    warm = Vec.create ();
    cold = Vec.create ();
    allocated = 0;
    p_large;
    large_mean;
    live_mb;
    nthreads = threads;
    oracle;
    sched_rng;
    epoch = Epoch.create ~n:threads ~sched:sched_rng;
    boot_allocs_by_thread = Array.make threads 0;
  }

let draw_small_size_rng t rng =
  (* Geometric in words around the benchmark mean, 16 B..8 KB. *)
  let mean_words = float_of_int t.desc.Descriptor.mean_small /. 8.0 in
  let p = 1.0 /. Float.max 2.0 mean_words in
  let words = 2 + Rng.geometric rng p in
  min Layout.max_small_object (max 16 (words * 8))

let draw_large_size_rng rng =
  let s = Rng.pareto rng ~alpha:large_alpha ~xmin:(float_of_int large_min) in
  min (2 * Units.mib) (int_of_float s)

let assign_heat_rng t rng cls =
  (* Hot objects must end up ~2% of *written* mature objects (Figure
     2). Written mature objects also include the cold sample and the
     warm class, so hot is rare and restricted to long-lived *churn*
     objects (caches, session tables) - allocated at runtime, so they
     pass through the observer where KG-W can classify them. The boot
     image itself is read-mostly static data. *)
  let long_like =
    match cls with
    | Lifetime.Long -> true
    (* Benchmarks with (almost) no long-lived churn still have a hot
       working set; it just lives in the medium class. *)
    | Lifetime.Medium ->
      t.desc.Descriptor.nursery_survival *. t.desc.Descriptor.observer_survival < 0.02
    | _ -> false
  in
  if long_like then begin
    let u = Rng.float rng 1.0 in
    if u < 0.04 then O.Hot else if u < 0.20 then O.Warm else O.Cold
  end
  else
    match cls with
    | Lifetime.Short -> O.Cold
    | Lifetime.Medium -> if Rng.bernoulli rng 0.02 then O.Warm else O.Cold
    | Lifetime.Immortal -> if Rng.bernoulli rng 0.01 then O.Warm else O.Cold
    | Lifetime.Long -> O.Cold

(* Shared-pool registration. The cold-pool reservoir draws from [rng]:
   the allocating stream's own PRNG on the sequential path and at boot
   (startup runs before any worker exists), the schedule PRNG when the
   epoch coordinator applies, so generation streams stay untouched. *)
let add_to_pools t rng (o : O.t) =
  t.allocated <- t.allocated + 1;
  match O.heat t.words o with
  | O.Hot -> Vec.push t.hot o
  | O.Warm -> Vec.push t.warm o
  | O.Cold ->
    if Vec.length t.cold < cold_cap then Vec.push t.cold o
    else if Rng.bernoulli rng (float_of_int cold_cap /. float_of_int t.allocated) then
      Vec.set t.cold (Rng.int rng cold_cap) o

let push_recent s x =
  s.recent.(s.recent_cursor) <- x;
  s.recent_cursor <- (s.recent_cursor + 1) mod recent_size

let register t s (o : O.t) =
  push_recent s o;
  add_to_pools t s.rng o

(* ------------------------------------------------------------------ *)
(* Target picks                                                        *)
(*                                                                     *)
(* Picks return {!Epoch} targets, [Epoch.none] when they find nothing, *)
(* judging liveness at [now]. The sequential path applies its ops as   *)
(* it goes and prunes dead pool entries as it meets them ([~prune]);   *)
(* epoch generation reads a frozen snapshot and must leave the shared  *)
(* pools alone (the barrier compacts them instead).                    *)

let pick_live t rng now pool attempts ~prune =
  let found = ref Epoch.none and a = ref attempts in
  while !found = Epoch.none && !a > 0 && Vec.length pool > 0 do
    let i = Rng.int rng (Vec.length pool) in
    let o = Vec.get pool i in
    if O.is_live t.words o now then found := o
    else begin
      if prune then ignore (Vec.swap_remove pool i);
      decr a
    end
  done;
  !found

(* A recent-ring slot: a live object, or this epoch's pending one. *)
let pick_recent t s now =
  let found = ref Epoch.none and a = ref 4 in
  while !found = Epoch.none && !a > 0 do
    let x = s.recent.(Rng.int s.rng recent_size) in
    if Epoch.is_pending x || (x <> Epoch.none && O.is_live t.words x now) then found := x
    else decr a
  done;
  !found

(* Writes within the hot class are themselves skewed (a few session
   tables/caches dominate), so rank hot picks with a Zipf draw over
   registration order rather than uniformly. *)
let pick_hot t rng now attempts ~prune =
  let pool = t.hot in
  let found = ref Epoch.none and a = ref attempts in
  while !found = Epoch.none && !a > 0 && Vec.length pool > 0 do
    let i = Rng.zipf rng ~n:(Vec.length pool) ~s:1.2 in
    let o = Vec.get pool i in
    if O.is_live t.words o now then found := o
    else begin
      if prune then ignore (Vec.swap_remove pool i);
      decr a
    end
  done;
  !found

let pick_mature t s now ~prune =
  let d = t.desc in
  let u = Rng.float s.rng 1.0 in
  let primary =
    if u < d.Descriptor.top2_frac then pick_hot t s.rng now 8 ~prune
    else if u < d.Descriptor.top10_frac then pick_live t s.rng now t.warm 8 ~prune
    else pick_live t s.rng now t.cold 8 ~prune
  in
  if primary <> Epoch.none then primary
  else
    let cold = pick_live t s.rng now t.cold 8 ~prune in
    if cold <> Epoch.none then cold else pick_recent t s now

let recent_or_mature t s now ~prune =
  let x = pick_recent t s now in
  if x <> Epoch.none then x else pick_mature t s now ~prune

(* One mutation write, applied through the runtime ([ops] = None, the
   sequential path) or appended to an epoch op buffer. *)
let do_write t s now (ops : Epoch.ops option) =
  let prune = Option.is_none ops in
  let src =
    if Rng.bernoulli s.rng t.desc.Descriptor.nursery_write_frac then
      recent_or_mature t s now ~prune
    else
      let x = pick_mature t s now ~prune in
      if x <> Epoch.none then x else pick_recent t s now
  in
  if src <> Epoch.none then begin
    let tgt =
      if Rng.bernoulli s.rng t.desc.Descriptor.ref_write_frac then
        if Rng.bernoulli s.rng 0.5 then recent_or_mature t s now ~prune
        else pick_mature t s now ~prune
      else Epoch.none
    in
    match ops with
    | None -> if tgt <> Epoch.none then Rt.write_ref t.rt ~src ~tgt else Rt.write_prim t.rt src
    | Some b -> if tgt <> Epoch.none then Epoch.write_ref b ~src ~tgt else Epoch.write_prim b src
  end

(* Reads come in streaming bursts over one object (field walks, array
   scans), so one target pick services several load events. *)
let do_reads t s now (ops : Epoch.ops option) n =
  let target =
    if Rng.bernoulli s.rng 0.6 then pick_recent t s now
    else pick_mature t s now ~prune:(Option.is_none ops)
  in
  if target <> Epoch.none then
    match ops with
    | None -> Rt.read_burst t.rt target n
    | Some b -> Epoch.read_burst b target ~words:n

(* Pay the write/read debt an allocation of [size] bytes incurs. *)
let mutate t s now ops size =
  let d = t.desc in
  let debts = s.debts in
  debts.(write_debt) <-
    debts.(write_debt) +. (float_of_int size *. d.Descriptor.write_alloc_ratio /. 8.0);
  while debts.(write_debt) >= 1.0 do
    do_write t s now ops;
    debts.(write_debt) <- debts.(write_debt) -. 1.0;
    debts.(read_debt) <- debts.(read_debt) +. d.Descriptor.read_write_ratio;
    if debts.(read_debt) >= 1.0 then begin
      let burst = min 8 (int_of_float debts.(read_debt)) in
      do_reads t s now ops burst;
      debts.(read_debt) <- debts.(read_debt) -. float_of_int burst
    end
  done

let allocate_startup t =
  (* Boot image: immortal objects placed directly in the mature space.
     They still join the target pools, so long-lived hot data (session
     tables, caches) receives its share of mature writes. Boot
     allocation round-robins across all mutator threads — every
     thread's PRNG stream and recent window start populated, so thread
     0 has no privileged role once the run begins. *)
  let target = 0.4 *. float_of_int t.live_mb *. float_of_int Units.mib in
  let start = Rt.now t.rt in
  let k = ref 0 in
  while Rt.now t.rt -. start < target do
    let d = !k mod t.nthreads in
    incr k;
    let s = t.streams.(d) in
    let large = Rng.bernoulli s.rng t.p_large in
    let size = if large then draw_large_size_rng s.rng else draw_small_size_rng t s.rng in
    let heat = assign_heat_rng t s.rng Lifetime.Immortal in
    let o = Rt.alloc_boot t.rt ~size ~heat ~ref_fields:(max 1 (size / 32)) in
    register t s o;
    t.boot_allocs_by_thread.(d) <- t.boot_allocs_by_thread.(d) + 1
  done

(* ------------------------------------------------------------------ *)
(* The 1-domain sequential path                                        *)

let allocate_one t s =
  let cls, life =
    Lifetime.draw t.life s.rng ~nursery_remaining:(float_of_int (Rt.nursery_free t.rt))
  in
  let large = Rng.bernoulli s.rng t.p_large in
  let size = if large then draw_large_size_rng s.rng else draw_small_size_rng t s.rng in
  (* Large objects draw from the same lifetime mixture: "we find
     empirically that large objects often follow the weak-generational
     hypothesis, i.e., they die quickly" (4.2.4). *)
  let heat = assign_heat_rng t s.rng cls in
  let death = Rt.now t.rt +. life in
  let ref_fields = max 1 (size / 32) in
  let o = Rt.alloc t.rt ~size ~heat ~death ~ref_fields in
  register t s o;
  o

(* Each engine step runs a small burst of allocations before checking
   the tick: the coarse granularity real schedulers produce. *)
let burst_allocs = 16

(* Mutation neither allocates nor collects, so the clock read after
   each allocation holds for its whole debt payment. *)
let run_sequential t ~alloc_bytes ~on_tick ~tick_bytes =
  let s = t.streams.(0) in
  let start = Rt.now t.rt in
  let next_tick = ref (start +. float_of_int tick_bytes) in
  let target = start +. float_of_int alloc_bytes in
  while Rt.now t.rt < target do
    let deadline = Float.min target (Rt.now t.rt +. float_of_int (burst_allocs * 256)) in
    while Rt.now t.rt < deadline do
      let o = allocate_one t s in
      mutate t s (Rt.now t.rt) None (O.size t.words o)
    done;
    if Rt.now t.rt >= !next_tick then begin
      on_tick (Rt.now t.rt);
      next_tick := !next_tick +. float_of_int tick_bytes
    end
  done

(* ------------------------------------------------------------------ *)
(* Epoch-parallel execution (threads > 1)                              *)
(*                                                                     *)
(* The protocol and its determinism argument live in {!Epoch}; this    *)
(* module supplies generation and the apply-side registration.         *)

(* Bytes of allocation each domain generates per epoch. Small enough
   that domains interleave at burst granularity, large enough that the
   per-epoch barrier cost is amortised. *)
let epoch_quantum = 4 * 1024

(* Generate one epoch's op stream for domain [d]: the parallel half of
   the protocol. Touches only [t.streams.(d)] and read-only state. *)
let generate t d ops =
  let s = t.streams.(d) in
  let now = Epoch.now t.epoch in
  let nursery_remaining = float_of_int (Epoch.nursery_free t.epoch d) in
  let emit = Some ops in
  let bytes = ref 0 in
  while !bytes < epoch_quantum do
    let cls, life = Lifetime.draw t.life s.rng ~nursery_remaining in
    let large = Rng.bernoulli s.rng t.p_large in
    let size = if large then draw_large_size_rng s.rng else draw_small_size_rng t s.rng in
    let heat = assign_heat_rng t s.rng cls in
    push_recent s (Epoch.alloc ops ~size ~heat ~life ~ref_fields:(max 1 (size / 32)));
    bytes := !bytes + size;
    mutate t s now emit size
  done

(* Epoch barrier: resolve the recent rings' pending markers to the
   objects the epoch materialised, and compact the shared pools
   (the sequential path prunes lazily inside its picks; the parallel
   path must not mutate pools mid-epoch, so it prunes here). *)
let epoch_barrier t e =
  Array.iteri (fun d s -> Epoch.resolve_slots e d s.recent) t.streams;
  let now = Rt.now t.rt in
  Vec.filter_in_place (fun o -> O.is_live t.words o now) t.hot;
  Vec.filter_in_place (fun o -> O.is_live t.words o now) t.warm;
  Vec.filter_in_place (fun o -> O.is_live t.words o now) t.cold

let run_epochs t ~alloc_bytes ~on_tick ~tick_bytes =
  let start = Rt.now t.rt in
  let next_tick = ref (start +. float_of_int tick_bytes) in
  let e = t.epoch in
  Epoch.run e t.rt ~oracle:t.oracle ~until:(start +. float_of_int alloc_bytes)
    {
      Epoch.generate = generate t;
      on_alloc = (fun _ o -> add_to_pools t t.sched_rng o);
      on_mark = (fun _ _ _ -> ());
      barrier =
        (fun () ->
          epoch_barrier t e;
          if Rt.now t.rt >= !next_tick then begin
            on_tick (Rt.now t.rt);
            next_tick := !next_tick +. float_of_int tick_bytes
          end);
    }

let run t ~alloc_bytes ?(on_tick = fun _ -> ()) ?(tick_bytes = Units.mib) () =
  if t.nthreads = 1 then run_sequential t ~alloc_bytes ~on_tick ~tick_bytes
  else run_epochs t ~alloc_bytes ~on_tick ~tick_bytes

let scaled_alloc_bytes (d : Descriptor.t) ~scale ~cap_mb =
  let scaled = d.alloc_mb / max 1 scale in
  let floor_mb = min d.alloc_mb 96 in
  min cap_mb (max floor_mb scaled) * Units.mib
