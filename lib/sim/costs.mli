(** Calibration constants for the time and energy models.

    The cache/memory simulator produces exact access counts; these
    constants convert counts into time and power the way a mechanistic
    core model would (cf. Sniper's interval model): a per-event CPU
    cost covering application compute, per-byte collector costs, and a
    memory-level-parallelism factor that says how much raw device
    latency is exposed as stall time. They are calibrated once against
    the paper's published baselines (PCM-only ~1.7x DRAM-only
    execution time; KG-W ~7% over KG-N on uniform memory) and then held
    fixed across all experiments. *)

val t_alloc_per_byte_ns : float
(** Mutator allocation + zeroing + initialisation work per byte. *)

val t_access_ns : float
(** Application compute per heap access event (load or store). *)

val t_copy_per_byte_ns : float
(** Collector copy cost per byte (on top of simulated traffic). *)

val t_scan_per_object_ns : float
(** Tracing/scanning cost per object visited. *)

val t_gc_fixed_ns : float
(** Fixed pause cost per collection (root scanning, bookkeeping). *)

val t_gc_sync_ns : float
(** Extra fixed cost per collection for the modeled parallel collector
    ([parallel_gc]): fork/join barriers and plan-buffer merging. *)

val t_barrier_fast_ns : float
(** Fast-path reference/primitive barrier, per store. *)

val t_remset_insert_ns : float
(** Slow path: remembered-set insert. *)

val t_monitor_ns : float
(** Slow path: write-word monitoring store. *)

val mem_read_overlap : float
(** Fraction of raw memory read latency exposed as pipeline stalls
    (loads block dependent instructions; MLP hides the rest). *)

val mem_write_overlap : float
(** Fraction of write latency exposed: stores are posted through the
    controller's write queue and rarely stall the pipeline, so PCM's
    12x write latency costs endurance and energy, not much time. *)

val cpu_power_w : float
val dram_static_w_per_gb : float
val pcm_static_w_per_gb : float
