(* The slice partition behind the collector's plan/apply phases.

   A phase of width [width] plans each slice into a slice-private
   buffer, in slice order on the calling domain, and then applies the
   buffers in slice order. The partition is part of the observable
   protocol: it fixes the merge order, so it must not depend on the
   width's execution. *)

(* Slice [i] of a [width]-way partition of [0 .. len-1]: contiguous and
   covering. *)
let slice ~len ~width i =
  let lo = i * len / width and hi = (i + 1) * len / width in
  (lo, hi - 1)
