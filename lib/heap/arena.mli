(** Carves virtual address ranges for heap spaces out of a device
    region.

    The simulator identity-maps virtual to physical addresses (except
    under OS write partitioning, which owns its own page table), so
    placing a space in the DRAM or PCM arena decides which device its
    traffic hits. Requests are rounded up to the 4 KB page granularity,
    matching "requests to the OS are at the page granularity" (§4.1).
    An arena belongs to one runtime and is not thread-safe. *)

type t

val create : kind:Kg_mem.Device.kind -> base:int -> size:int -> t

val kind : t -> Kg_mem.Device.kind

val reserve : ?who:string -> t -> int -> int
(** [reserve ?who t bytes] returns the base address of a fresh
    page-aligned range. [who] names the requesting space for
    diagnostics. Raises [Failure] when the arena is exhausted; the
    message reports the requester, the rounded request, the bytes
    left, and the reserved-of-limit occupancy. *)

val reserved_bytes : t -> int
val remaining : t -> int
val base : t -> int
val limit : t -> int
