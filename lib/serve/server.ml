(* The request/response mutator: a server-shaped workload on top of
   the same generate-then-merge epoch protocol as Kg_workload.Mutator.

   Each mutator domain is one worker serving an open-loop stream of
   requests. Per domain and per epoch, generation is a pure function
   of the domain's private state (PRNG, arrival clock, session table,
   cache shard, recent ring, debts) plus the epoch-start snapshot;
   the flat op streams are interleaved by the schedule PRNG and
   applied through the domain-tagged runtime calls (Epoch.run). The
   whole run is therefore a pure function of
   (seed, schedule_seed, domains, config) exactly like the batch
   mutator.

   Workload shape, per request:
   - an arrival drawn from a per-domain Poisson process (the n domain
     processes superpose to the configured requests/sec), stamped on
     the domain's byte clock;
   - a session-table touch with churn: expired or churned slots are
     refilled with a fresh session root whose death stamp is the
     session TTL (mature-space churn with object turnover);
   - a tiered cache probe (Zipf keys): tier-1 hit reads; tier-1 miss
     falls to tier-2 (hit promotes a copy into tier-1); a full miss
     simulates a backend fill, inserting into tier-1 and sometimes
     tier-2. Every insert allocates with death = TTL, so TTL eviction
     is real heap churn, not bookkeeping;
   - an allocation burst of response scratch drawn from the Lifetime
     demographics, with write/read debts paced by the descriptor as in
     the batch mutator.

   Latency model: the domain byte clock doubles as a single-server
   queue simulation — service demand is the request's allocated
   bytes, so queueing delay = busy_until - arrival (converted to ms
   at the configured per-domain allocation speed). On top of that the
   apply side attributes STW pauses: every collection's modeled
   pause (Time_model, supplied by the driver) accumulates into a
   running total, and a request's end-to-end latency adds the pause
   time accumulated while its ops were being applied. *)

open Kg_util
open Kg_workload
module O = Kg_heap.Object_model
module Rt = Kg_gc.Runtime

type config = {
  rate : float;  (* open-loop arrival rate, requests/sec, all domains *)
  service_mib_s : float;  (* per-domain allocation speed, MiB of clock per second *)
  req_alloc_mean : int;  (* mean request allocation burst, bytes *)
  sessions : int;  (* session-table slots per domain *)
  session_ttl_ms : float;
  session_churn : float;  (* P(request retires its session early) *)
  tier1_entries : int;  (* per-domain cache shard sizes *)
  tier1_ttl_ms : float;
  tier2_entries : int;
  tier2_ttl_ms : float;
  tier2_insert_p : float;  (* P(backend fill also lands in tier 2) *)
}

let default_config =
  {
    rate = 256.0;
    service_mib_s = 64.0;
    req_alloc_mean = 32 * 1024;
    sessions = 256;
    session_ttl_ms = 2000.0;
    session_churn = 0.05;
    tier1_entries = 512;
    tier1_ttl_ms = 250.0;
    tier2_entries = 2048;
    tier2_ttl_ms = 2000.0;
    tier2_insert_p = 0.25;
  }

let recent_size = 256
let epoch_quantum = 16 * 1024

(* Request markers in the op stream (Epoch.mark kinds). *)
let mark_req_begin = 0
let mark_req_end = 1

(* A cache shard: per entry, the cached object as an Epoch target
   (possibly pending this epoch, Epoch.none when empty) and its expiry
   on the owning domain's byte clock. The object's death stamp
   enforces the same TTL on the global allocation clock, so the entry
   bookkeeping and the heap agree about eviction. *)
type tier = { c_tgt : int array; c_expiry : float array }

(* Slots of a domain's float state: mutation debts and the open-loop
   queue simulation, all on the domain byte clock. An unboxed float
   array, so updating them allocates nothing. *)
let f_write_debt = 0
let f_read_debt = 1
let f_bytes = 2  (* cumulative bytes this domain generated *)
let f_next_arrival = 3
let f_busy_until = 4

(* Recent ring and session table hold Epoch targets. *)
type dstate = {
  d_rng : Rng.t;
  d_recent : int array;
  mutable d_recent_cursor : int;
  d_f : float array;
  d_sessions : int array;
  d_tier1 : tier;
  d_tier2 : tier;
  (* per-domain counters, summed deterministically at readout *)
  mutable d_t1_hits : int;
  mutable d_t2_hits : int;
  mutable d_backend_fills : int;
  mutable d_sessions_churned : int;
}

type t = {
  cfg : config;
  desc : Descriptor.t;
  rt : Rt.t;
  words : O.store;
  life : Lifetime.t;
  live_mb : int;
  nthreads : int;
  epoch : Epoch.t;  (* op buffers and merge schedule, reused across runs *)
  dstates : dstate array;
  (* derived clock constants *)
  bytes_per_ms : float;  (* per-domain byte clock speed *)
  interarrival : float;  (* mean, per-domain, in domain bytes *)
  session_life : float;  (* global allocation-clock bytes *)
  tier1_life : float;
  tier2_life : float;
  (* apply-side instrumentation *)
  latencies : Hdr_histogram.t;
  pauses : Hdr_histogram.t;
  mutable pause_acc : float;  (* total pause ms so far *)
  d_pause_mark : float array;  (* pause_acc when each domain's open request began *)
  mutable requests : int;
  mutable pause_model_attached : bool;
}

let config t = t.cfg
let descriptor t = t.desc
let runtime t = t.rt
let thread_count t = t.nthreads
let latencies t = t.latencies
let pauses t = t.pauses
let request_count t = t.requests

let sum_by f t = Array.fold_left (fun acc ds -> acc + f ds) 0 t.dstates
let tier1_hits t = sum_by (fun ds -> ds.d_t1_hits) t
let tier2_hits t = sum_by (fun ds -> ds.d_t2_hits) t
let backend_fills t = sum_by (fun ds -> ds.d_backend_fills) t
let sessions_churned t = sum_by (fun ds -> ds.d_sessions_churned) t

let create ?live_mb ?(threads = 1) ?(schedule_seed = 0) ?(config = default_config)
    desc ~rt ~seed =
  let threads = max 1 threads in
  if threads > 1 && Rt.domains rt <> threads then
    invalid_arg
      (Printf.sprintf "Server.create: %d threads need a runtime with %d domains (has %d)"
         threads threads (Rt.domains rt));
  if config.rate <= 0.0 then invalid_arg "Server.create: rate must be positive";
  let live_mb = Option.value live_mb ~default:(Descriptor.live_mb desc) in
  let life =
    Lifetime.make ~live_mb desc ~nursery_bytes:(4 * Units.mib) ~observer_bytes:(8 * Units.mib)
  in
  let root = Rng.of_seed seed in
  let mk_tier n = { c_tgt = Array.make (max 1 n) Epoch.none; c_expiry = Array.make (max 1 n) 0.0 } in
  let mk_dstate _ =
    {
      d_rng = Rng.split root;
      d_recent = Array.make recent_size Epoch.none;
      d_recent_cursor = 0;
      d_f = Array.make 5 0.0;
      d_sessions = Array.make (max 1 config.sessions) Epoch.none;
      d_tier1 = mk_tier config.tier1_entries;
      d_tier2 = mk_tier config.tier2_entries;
      d_t1_hits = 0;
      d_t2_hits = 0;
      d_backend_fills = 0;
      d_sessions_churned = 0;
    }
  in
  let bytes_per_ms = config.service_mib_s *. float_of_int Units.mib /. 1000.0 in
  let n = float_of_int threads in
  {
    cfg = config;
    desc;
    rt;
    words = Rt.words rt;
    life;
    live_mb;
    nthreads = threads;
    epoch = Epoch.create ~n:threads ~sched:(Rng.of_seed schedule_seed);
    dstates = Array.init threads mk_dstate;
    bytes_per_ms;
    (* per-domain arrival rate is rate/n, so the n Poisson processes
       superpose to the configured total *)
    interarrival = bytes_per_ms *. 1000.0 *. n /. config.rate;
    session_life = config.session_ttl_ms *. bytes_per_ms *. n;
    tier1_life = config.tier1_ttl_ms *. bytes_per_ms *. n;
    tier2_life = config.tier2_ttl_ms *. bytes_per_ms *. n;
    latencies = Hdr_histogram.create ();
    pauses = Hdr_histogram.create ();
    pause_acc = 0.0;
    d_pause_mark = Array.make threads 0.0;
    requests = 0;
    pause_model_attached = false;
  }

(* Feed every collection's modeled STW pause into the histogram and
   the running total the latency attribution reads. The driver calls
   this after Gc_stats.reset (so boot collections are excluded) with
   Time_model.pause_ms partially applied to the run's domain count. *)
let attach_pause_recorder t ~pause_ms =
  if t.pause_model_attached then invalid_arg "Server.attach_pause_recorder: already attached";
  t.pause_model_attached <- true;
  let stats = Rt.stats t.rt in
  Rt.add_gc_hook t.rt (fun phase ->
      let log = stats.Kg_gc.Gc_stats.collection_log in
      if Vec.length log > 0 then begin
        let p, copied, scanned = Vec.get log (Vec.length log - 1) in
        ignore phase;
        let ms = pause_ms p ~copied ~scanned in
        Hdr_histogram.add t.pauses ms;
        t.pause_acc <- t.pause_acc +. ms
      end)

(* ------------------------------------------------------------------ *)
(* Generation (pure per-domain)                                        *)

let draw_scratch_size t rng =
  let mean_words = float_of_int t.desc.Descriptor.mean_small /. 8.0 in
  let p = 1.0 /. Float.max 2.0 mean_words in
  let words = 2 + Rng.geometric rng p in
  min Kg_heap.Layout.max_small_object (max 16 (words * 8))

let session_size t = max 256 (t.desc.Descriptor.mean_small * 4)
let cache_obj_size t = max 128 (t.desc.Descriptor.mean_small * 2)

let push_recent ds tgt =
  ds.d_recent.(ds.d_recent_cursor) <- tgt;
  ds.d_recent_cursor <- (ds.d_recent_cursor + 1) mod recent_size

(* Pickers return Epoch targets, Epoch.none when they find nothing. *)
let g_pick_recent t ds now =
  let found = ref Epoch.none and a = ref 4 in
  while !found = Epoch.none && !a > 0 do
    let x = ds.d_recent.(Rng.int ds.d_rng recent_size) in
    if Epoch.is_pending x || (x <> Epoch.none && O.is_live t.words x now) then found := x
    else decr a
  done;
  !found

(* A slot's target unless it names an object that has died. *)
let live_slot t now x =
  if x = Epoch.none || Epoch.is_pending x || O.is_live t.words x now then x else Epoch.none

(* Mature write targets are the server's long-lived churn: session
   roots (Zipf — a few busy sessions dominate) and cache entries. *)
let g_pick_session t ds now =
  live_slot t now ds.d_sessions.(Rng.zipf ds.d_rng ~n:(Array.length ds.d_sessions) ~s:1.2)

let g_pick_cache t ds now =
  let tier = if Rng.bernoulli ds.d_rng 0.7 then ds.d_tier1 else ds.d_tier2 in
  let i = Rng.int ds.d_rng (Array.length tier.c_tgt) in
  if tier.c_expiry.(i) > ds.d_f.(f_bytes) then live_slot t now tier.c_tgt.(i) else Epoch.none

let g_pick_mature t ds now =
  let x =
    if Rng.bernoulli ds.d_rng 0.5 then g_pick_session t ds now else g_pick_cache t ds now
  in
  if x <> Epoch.none then x
  else
    let s = g_pick_session t ds now in
    if s <> Epoch.none then s else g_pick_recent t ds now

let g_recent_or_mature t ds now =
  let x = g_pick_recent t ds now in
  if x <> Epoch.none then x else g_pick_mature t ds now

let g_do_write t ds now ops =
  let src =
    if Rng.bernoulli ds.d_rng t.desc.Descriptor.nursery_write_frac then
      g_recent_or_mature t ds now
    else
      let x = g_pick_mature t ds now in
      if x <> Epoch.none then x else g_pick_recent t ds now
  in
  if src <> Epoch.none then
    if Rng.bernoulli ds.d_rng t.desc.Descriptor.ref_write_frac then begin
      let tgt =
        if Rng.bernoulli ds.d_rng 0.5 then g_recent_or_mature t ds now
        else g_pick_mature t ds now
      in
      if tgt <> Epoch.none then Epoch.write_ref ops ~src ~tgt else Epoch.write_prim ops src
    end
    else Epoch.write_prim ops src

let g_do_reads t ds now ops n =
  let target =
    if Rng.bernoulli ds.d_rng 0.6 then g_pick_recent t ds now else g_pick_mature t ds now
  in
  if target <> Epoch.none then Epoch.read_burst ops target ~words:n

(* Descriptor-paced mutation debt, charged per allocated object like
   the batch mutator's mutate_for. *)
let g_mutate_debt t ds now ops size =
  let f = ds.d_f in
  f.(f_write_debt) <-
    f.(f_write_debt) +. (float_of_int size *. t.desc.Descriptor.write_alloc_ratio /. 8.0);
  while f.(f_write_debt) >= 1.0 do
    g_do_write t ds now ops;
    f.(f_write_debt) <- f.(f_write_debt) -. 1.0;
    f.(f_read_debt) <- f.(f_read_debt) +. t.desc.Descriptor.read_write_ratio;
    if f.(f_read_debt) >= 1.0 then begin
      let burst = min 8 (int_of_float f.(f_read_debt)) in
      g_do_reads t ds now ops burst;
      f.(f_read_debt) <- f.(f_read_debt) -. float_of_int burst
    end
  done

let scratch_heat ds = function
  | Lifetime.Short -> O.Cold
  | Lifetime.Medium -> if Rng.bernoulli ds.d_rng 0.02 then O.Warm else O.Cold
  | Lifetime.Long | Lifetime.Immortal -> if Rng.bernoulli ds.d_rng 0.2 then O.Warm else O.Cold

(* A cache probe: the entry's target while it has not expired. *)
let probe ds tier key =
  if tier.c_tgt.(key) <> Epoch.none && tier.c_expiry.(key) > ds.d_f.(f_bytes) then
    tier.c_tgt.(key)
  else Epoch.none

(* Insert a fresh cache object at [key]; returns its pending target. *)
let insert t ds ops tier key ~life ~expiry_ms ~heat =
  let size = cache_obj_size t in
  let tgt = Epoch.alloc ops ~size ~heat ~life ~ref_fields:(max 1 (size / 32)) in
  tier.c_tgt.(key) <- tgt;
  tier.c_expiry.(key) <- ds.d_f.(f_bytes) +. (expiry_ms *. t.bytes_per_ms);
  tgt

(* One request: session touch + churn, tiered cache probe, response
   scratch burst. Returns the bytes it allocated. *)
let g_request t d ds ops =
  let now = Epoch.now t.epoch in
  let nursery_free = float_of_int (Epoch.nursery_free t.epoch d) in
  let cfg = t.cfg in
  let f = ds.d_f in
  let arrival = f.(f_next_arrival) in
  f.(f_next_arrival) <- arrival +. Rng.exponential ds.d_rng t.interarrival;
  Epoch.mark ops mark_req_begin 0.0;
  (* session touch: refill dead/expired slots, churn live ones *)
  let si = Rng.zipf ds.d_rng ~n:(Array.length ds.d_sessions) ~s:1.2 in
  let slot = ds.d_sessions.(si) in
  let slot_live =
    Epoch.is_pending slot || (slot <> Epoch.none && O.is_live t.words slot now)
  in
  let bytes = ref 0 in
  let session =
    if (not slot_live) || Rng.bernoulli ds.d_rng cfg.session_churn then begin
      if slot_live then ds.d_sessions_churned <- ds.d_sessions_churned + 1;
      let heat = if Rng.bernoulli ds.d_rng 0.3 then O.Hot else O.Warm in
      let size = session_size t in
      bytes := !bytes + size;
      let s = Epoch.alloc ops ~size ~heat ~life:t.session_life ~ref_fields:(max 1 (size / 32)) in
      ds.d_sessions.(si) <- s;
      s
    end
    else slot
  in
  Epoch.write_prim ops session;
  (* tiered cache probe *)
  let k1 = Rng.zipf ds.d_rng ~n:(Array.length ds.d_tier1.c_tgt) ~s:1.1 in
  let hit1 = probe ds ds.d_tier1 k1 in
  if hit1 <> Epoch.none then begin
    ds.d_t1_hits <- ds.d_t1_hits + 1;
    Epoch.read_burst ops hit1 ~words:16
  end
  else begin
    let k2 = Rng.zipf ds.d_rng ~n:(Array.length ds.d_tier2.c_tgt) ~s:1.1 in
    let hit2 = probe ds ds.d_tier2 k2 in
    if hit2 <> Epoch.none then begin
      ds.d_t2_hits <- ds.d_t2_hits + 1;
      Epoch.read_burst ops hit2 ~words:16;
      (* promote a fresh copy into tier 1 *)
      bytes := !bytes + cache_obj_size t;
      let promoted =
        insert t ds ops ds.d_tier1 k1 ~life:t.tier1_life ~expiry_ms:cfg.tier1_ttl_ms ~heat:O.Warm
      in
      Epoch.write_ref ops ~src:promoted ~tgt:hit2
    end
    else begin
      (* backend fill *)
      ds.d_backend_fills <- ds.d_backend_fills + 1;
      bytes := !bytes + cache_obj_size t;
      let filled =
        insert t ds ops ds.d_tier1 k1 ~life:t.tier1_life ~expiry_ms:cfg.tier1_ttl_ms ~heat:O.Warm
      in
      Epoch.write_ref ops ~src:session ~tgt:filled;
      if Rng.bernoulli ds.d_rng cfg.tier2_insert_p then begin
        bytes := !bytes + cache_obj_size t;
        ignore
          (insert t ds ops ds.d_tier2 k2 ~life:t.tier2_life ~expiry_ms:cfg.tier2_ttl_ms
             ~heat:O.Cold)
      end
    end
  end;
  (* response scratch burst from the Lifetime demographics *)
  let budget =
    (cfg.req_alloc_mean / 2)
    + int_of_float (Rng.exponential ds.d_rng (float_of_int cfg.req_alloc_mean /. 2.0))
  in
  while !bytes < budget do
    let cls, life = Lifetime.draw t.life ds.d_rng ~nursery_remaining:nursery_free in
    let size = draw_scratch_size t ds.d_rng in
    let heat = scratch_heat ds cls in
    bytes := !bytes + size;
    let tgt = Epoch.alloc ops ~size ~heat ~life ~ref_fields:(max 1 (size / 32)) in
    push_recent ds tgt;
    if Rng.bernoulli ds.d_rng 0.25 then Epoch.write_ref ops ~src:session ~tgt;
    g_mutate_debt t ds now ops size
  done;
  (* single-server queue: service demand is the bytes we just decided
     to allocate; queueing delay falls out of busy_until *)
  let service = float_of_int !bytes in
  let start = Float.max arrival f.(f_busy_until) in
  f.(f_busy_until) <- start +. service;
  f.(f_bytes) <- f.(f_bytes) +. service;
  Epoch.mark ops mark_req_end ((f.(f_busy_until) -. arrival) /. t.bytes_per_ms);
  !bytes

(* One epoch's op stream for domain [d]: requests until the epoch
   quantum is allocated. Touches only dstates.(d) and read-only
   state. *)
let generate t d ops =
  let ds = t.dstates.(d) in
  let bytes = ref 0 in
  while !bytes < epoch_quantum do
    bytes := !bytes + g_request t d ds ops
  done

(* ------------------------------------------------------------------ *)
(* Apply-side hooks and the barrier                                   *)

let on_request_mark t d kind payload =
  if kind = mark_req_begin then t.d_pause_mark.(d) <- t.pause_acc
  else begin
    Hdr_histogram.add t.latencies (payload +. (t.pause_acc -. t.d_pause_mark.(d)));
    t.requests <- t.requests + 1
  end

(* Epoch barrier: resolve this epoch's pending markers in the recent
   rings, session tables and cache shards to the materialised
   objects. *)
let epoch_barrier t e =
  Array.iteri
    (fun d ds ->
      Epoch.resolve_slots e d ds.d_recent;
      Epoch.resolve_slots e d ds.d_sessions;
      Epoch.resolve_slots e d ds.d_tier1.c_tgt;
      Epoch.resolve_slots e d ds.d_tier2.c_tgt)
    t.dstates

(* ------------------------------------------------------------------ *)
(* Boot image and the run loop                                         *)

let allocate_startup t =
  (* Immortal base (code, config, interned data): 40% of the live
     target, round-robined across domains like the batch mutator's
     startup so no domain starts privileged. *)
  let target = 0.4 *. float_of_int t.live_mb *. float_of_int Units.mib in
  let start = Rt.now t.rt in
  let k = ref 0 in
  while Rt.now t.rt -. start < target do
    let d = !k mod t.nthreads in
    incr k;
    let ds = t.dstates.(d) in
    let size = draw_scratch_size t ds.d_rng in
    let heat = if Rng.bernoulli ds.d_rng 0.05 then O.Warm else O.Cold in
    let o = Rt.alloc_boot t.rt ~size ~heat ~ref_fields:(max 1 (size / 32)) in
    push_recent ds o
  done

let run t ~alloc_bytes =
  let e = t.epoch in
  Epoch.run e t.rt ~until:(Rt.now t.rt +. float_of_int alloc_bytes)
    {
      Epoch.generate = generate t;
      on_alloc = (fun _ _ -> ());
      on_mark = on_request_mark t;
      barrier = (fun () -> epoch_barrier t e);
    }
