(** The slice partition behind the collector's plan/apply phases.

    A collection phase of width [w] (the runtime's simulated domain
    count) splits its work into [w] contiguous slices, plans every
    slice into a slice-private buffer, and applies the buffers in slice
    order. All slices run on the calling domain, slice [0] first. The
    partition fixes the merge order, and with it the bit-identity of
    every statistic and port record the phase emits; the modeled
    parallel collector ([Kg_sim.Time_model]) divides the phase's work
    by the same width. *)

val slice : len:int -> width:int -> int -> int * int
(** [slice ~len ~width i] is the [i]-th contiguous index range
    [(lo, hi)] (inclusive; empty when [lo > hi]) of a [width]-way
    partition of [0 .. len-1]. Concatenating the slices in slice order
    re-yields [0 .. len-1] exactly. *)
