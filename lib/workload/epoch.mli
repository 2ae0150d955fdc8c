(** The generate-then-merge epoch driver shared by {!Mutator} and the
    [Kg_serve] request mutator.

    One epoch runs in four steps. The driver takes an epoch-start
    snapshot of the allocation clock and every domain's nursery
    headroom. Every simulated mutator domain {e generates} its op
    stream into its own flat {!ops} buffer, domain 0 first. The driver
    {e merges} the streams into a run schedule drawn from the schedule
    PRNG and {e applies} it through the domain-tagged runtime calls. A
    caller barrier then resolves the epoch's pending targets. Every
    step runs on the calling OCaml domain: a simulated domain is a
    stream of ops, not a host thread, so the domain count is not
    bounded by the OCaml domain limit.

    {b Determinism.} Generation is a pure function of the domain's
    private state and the snapshot, so the order domains generate in
    does not matter. The merge draws from the schedule PRNG only, and
    its draws depend only on the per-domain op counts. Apply runs after
    the whole merge, so apply-side hooks that draw from the same PRNG
    (the batch mutator's reservoir sampling) see the same draw order as
    with a per-op merge. A run is therefore a pure function of the
    seeds, the domain count and the configuration.

    {b Host cost.} The op buffers, the run schedule and the
    epoch-allocation tables are reused across epochs, so a steady-state
    epoch allocates nothing on the host. *)

(** {2 Op buffers and targets}

    An op is a tag plus int arguments in a growable int array, with
    float arguments (allocation lifetimes, marker payloads) in a
    parallel float array. A target is an int: a positive value is an
    object, a negative value [-i - 1] is the issuing domain's [i]-th
    allocation of the current epoch (pending until apply materialises
    it), and {!none} (0) is no target. Generators keep their recent
    rings, session tables and cache slots in the same encoding. *)

type ops

val none : int

val is_pending : int -> bool
(** The target names an allocation of the current epoch. *)

val alloc :
  ops -> size:int -> heat:Kg_heap.Object_model.heat -> life:float -> ref_fields:int -> int
(** Append an allocation; the object dies [life] bytes of allocation
    clock after apply creates it. Returns its pending target. *)

val write_ref : ops -> src:int -> tgt:int -> unit
val write_prim : ops -> int -> unit
val read_burst : ops -> int -> words:int -> unit

val mark : ops -> int -> float -> unit
(** [mark ops kind payload] appends a caller-defined marker. Apply
    hands it to {!hooks.on_mark} at its place in the schedule (serve's
    request begin and end markers). *)

(** {2 The epoch driver} *)

type t
(** Per-domain op buffers, the run schedule and the epoch-allocation
    tables, reused across epochs. *)

val create : n:int -> sched:Kg_util.Rng.t -> t
(** A driver for [n] domains merging under the schedule PRNG [sched]. *)

val now : t -> float
(** The allocation clock at the start of the current epoch. *)

val nursery_free : t -> int -> int
(** [nursery_free e d]: domain [d]'s nursery headroom at the start of
    the current epoch. *)

val resolve_slots : t -> int -> int array -> unit
(** [resolve_slots e d slots] rewrites each pending target of domain
    [d] in [slots] to the object the current epoch's apply created for
    it — what a barrier does to the rings and tables its generator
    keeps. Other targets are left as they are. *)

type hooks = {
  generate : int -> ops -> unit;
      (** [generate d ops]: domain [d]'s op stream, appended to an
          emptied buffer. Must touch only domain-private and
          read-only state: the snapshot, not the live runtime, is what
          a domain sees of the epoch. *)
  on_alloc : int -> Kg_heap.Object_model.t -> unit;
      (** apply: domain [d]'s allocation was just created *)
  on_mark : int -> int -> float -> unit;  (** apply: [on_mark d kind payload] *)
  barrier : unit -> unit;  (** after apply: resolve pending slots *)
}

val run : t -> Kg_gc.Runtime.t -> hooks -> until:float -> unit
(** Run epochs until the runtime's allocation clock reaches [until]:
    snapshot, generate (domains [0 .. n-1] in order), merge, apply,
    barrier. An exception from a hook propagates at once. *)

val schedule : Kg_util.Rng.t -> int array -> (int * int) list
(** [schedule rng counts] is the run schedule the merge builds for
    per-domain op counts [counts]: [(domain, take)] runs in apply order,
    consecutive runs of one domain coalesced. The merge repeatedly draws
    a domain with ops left, then a chunk length in 1–8, and takes that
    many of its ops. Exposed for tests. *)
