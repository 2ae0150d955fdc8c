open Kg_util

type t = {
  mutable app_writes_nursery : int;
  mutable app_writes_observer : int;
  mutable app_writes_mature : int;
  mutable app_write_bytes_dram : int;
  mutable app_write_bytes_pcm : int;
  mutable ref_writes : int;
  mutable prim_writes : int;
  mutable reads : int;
  mutable gen_remset_inserts : int;
  mutable obs_remset_inserts : int;
  mutable monitor_header_writes : int;
  mutable barrier_fast_paths : int;
  mutable nursery_gcs : int;
  mutable observer_gcs : int;
  mutable major_gcs : int;
  mutable copied_bytes_nursery : int;
  mutable copied_bytes_observer : int;
  mutable copied_bytes_major : int;
  mutable remset_slot_updates : int;
  mutable mark_header_writes : int;
  mutable mark_table_writes : int;
  mutable scanned_objects : int;
  mutable nursery_alloc_bytes : int;
  mutable nursery_survived_bytes : int;
  mutable observer_in_bytes : int;
  mutable observer_survived_bytes : int;
  mutable observer_to_dram_bytes : int;
  mutable observer_to_pcm_bytes : int;
  mutable large_allocs : int;
  mutable large_allocs_in_nursery : int;
  mutable mature_moves_to_dram : int;
  mutable mature_moves_to_pcm : int;
  mutable los_moves_to_dram : int;
  retired_mature_writes : int Vec.t;
  collection_log : (Phase.t * int * int) Vec.t;
}

let create () =
  {
    app_writes_nursery = 0;
    app_writes_observer = 0;
    app_writes_mature = 0;
    app_write_bytes_dram = 0;
    app_write_bytes_pcm = 0;
    ref_writes = 0;
    prim_writes = 0;
    reads = 0;
    gen_remset_inserts = 0;
    obs_remset_inserts = 0;
    monitor_header_writes = 0;
    barrier_fast_paths = 0;
    nursery_gcs = 0;
    observer_gcs = 0;
    major_gcs = 0;
    copied_bytes_nursery = 0;
    copied_bytes_observer = 0;
    copied_bytes_major = 0;
    remset_slot_updates = 0;
    mark_header_writes = 0;
    mark_table_writes = 0;
    scanned_objects = 0;
    nursery_alloc_bytes = 0;
    nursery_survived_bytes = 0;
    observer_in_bytes = 0;
    observer_survived_bytes = 0;
    observer_to_dram_bytes = 0;
    observer_to_pcm_bytes = 0;
    large_allocs = 0;
    large_allocs_in_nursery = 0;
    mature_moves_to_dram = 0;
    mature_moves_to_pcm = 0;
    los_moves_to_dram = 0;
    retired_mature_writes = Vec.create ();
    collection_log = Vec.create ();
  }

let reset t =
  t.app_writes_nursery <- 0;
  t.app_writes_observer <- 0;
  t.app_writes_mature <- 0;
  t.app_write_bytes_dram <- 0;
  t.app_write_bytes_pcm <- 0;
  t.ref_writes <- 0;
  t.prim_writes <- 0;
  t.reads <- 0;
  t.gen_remset_inserts <- 0;
  t.obs_remset_inserts <- 0;
  t.monitor_header_writes <- 0;
  t.barrier_fast_paths <- 0;
  t.nursery_gcs <- 0;
  t.observer_gcs <- 0;
  t.major_gcs <- 0;
  t.copied_bytes_nursery <- 0;
  t.copied_bytes_observer <- 0;
  t.copied_bytes_major <- 0;
  t.remset_slot_updates <- 0;
  t.mark_header_writes <- 0;
  t.mark_table_writes <- 0;
  t.scanned_objects <- 0;
  t.nursery_alloc_bytes <- 0;
  t.nursery_survived_bytes <- 0;
  t.observer_in_bytes <- 0;
  t.observer_survived_bytes <- 0;
  t.observer_to_dram_bytes <- 0;
  t.observer_to_pcm_bytes <- 0;
  t.large_allocs <- 0;
  t.large_allocs_in_nursery <- 0;
  t.mature_moves_to_dram <- 0;
  t.mature_moves_to_pcm <- 0;
  t.los_moves_to_dram <- 0;
  Vec.clear t.retired_mature_writes;
  Vec.clear t.collection_log

let diff a b =
  let out = ref [] in
  let cmp name va vb =
    if va <> vb then out := Printf.sprintf "%s: %d <> %d" name va vb :: !out
  in
  cmp "app_writes_nursery" a.app_writes_nursery b.app_writes_nursery;
  cmp "app_writes_observer" a.app_writes_observer b.app_writes_observer;
  cmp "app_writes_mature" a.app_writes_mature b.app_writes_mature;
  cmp "app_write_bytes_dram" a.app_write_bytes_dram b.app_write_bytes_dram;
  cmp "app_write_bytes_pcm" a.app_write_bytes_pcm b.app_write_bytes_pcm;
  cmp "ref_writes" a.ref_writes b.ref_writes;
  cmp "prim_writes" a.prim_writes b.prim_writes;
  cmp "reads" a.reads b.reads;
  cmp "gen_remset_inserts" a.gen_remset_inserts b.gen_remset_inserts;
  cmp "obs_remset_inserts" a.obs_remset_inserts b.obs_remset_inserts;
  cmp "monitor_header_writes" a.monitor_header_writes b.monitor_header_writes;
  cmp "barrier_fast_paths" a.barrier_fast_paths b.barrier_fast_paths;
  cmp "nursery_gcs" a.nursery_gcs b.nursery_gcs;
  cmp "observer_gcs" a.observer_gcs b.observer_gcs;
  cmp "major_gcs" a.major_gcs b.major_gcs;
  cmp "copied_bytes_nursery" a.copied_bytes_nursery b.copied_bytes_nursery;
  cmp "copied_bytes_observer" a.copied_bytes_observer b.copied_bytes_observer;
  cmp "copied_bytes_major" a.copied_bytes_major b.copied_bytes_major;
  cmp "remset_slot_updates" a.remset_slot_updates b.remset_slot_updates;
  cmp "mark_header_writes" a.mark_header_writes b.mark_header_writes;
  cmp "mark_table_writes" a.mark_table_writes b.mark_table_writes;
  cmp "scanned_objects" a.scanned_objects b.scanned_objects;
  cmp "nursery_alloc_bytes" a.nursery_alloc_bytes b.nursery_alloc_bytes;
  cmp "nursery_survived_bytes" a.nursery_survived_bytes b.nursery_survived_bytes;
  cmp "observer_in_bytes" a.observer_in_bytes b.observer_in_bytes;
  cmp "observer_survived_bytes" a.observer_survived_bytes b.observer_survived_bytes;
  cmp "observer_to_dram_bytes" a.observer_to_dram_bytes b.observer_to_dram_bytes;
  cmp "observer_to_pcm_bytes" a.observer_to_pcm_bytes b.observer_to_pcm_bytes;
  cmp "large_allocs" a.large_allocs b.large_allocs;
  cmp "large_allocs_in_nursery" a.large_allocs_in_nursery b.large_allocs_in_nursery;
  cmp "mature_moves_to_dram" a.mature_moves_to_dram b.mature_moves_to_dram;
  cmp "mature_moves_to_pcm" a.mature_moves_to_pcm b.mature_moves_to_pcm;
  cmp "los_moves_to_dram" a.los_moves_to_dram b.los_moves_to_dram;
  cmp "retired_mature_writes length" (Vec.length a.retired_mature_writes)
    (Vec.length b.retired_mature_writes);
  if Vec.length a.retired_mature_writes = Vec.length b.retired_mature_writes then
    for i = 0 to Vec.length a.retired_mature_writes - 1 do
      if Vec.get a.retired_mature_writes i <> Vec.get b.retired_mature_writes i then
        out :=
          Printf.sprintf "retired_mature_writes[%d]: %d <> %d" i
            (Vec.get a.retired_mature_writes i)
            (Vec.get b.retired_mature_writes i)
          :: !out
    done;
  cmp "collection_log length" (Vec.length a.collection_log) (Vec.length b.collection_log);
  if Vec.length a.collection_log = Vec.length b.collection_log then
    for i = 0 to Vec.length a.collection_log - 1 do
      let pa, ca, sa = Vec.get a.collection_log i and pb, cb, sb = Vec.get b.collection_log i in
      if pa <> pb || ca <> cb || sa <> sb then
        out :=
          Printf.sprintf "collection_log[%d]: (%s, %d, %d) <> (%s, %d, %d)" i (Phase.to_string pa)
            ca sa (Phase.to_string pb) cb sb
          :: !out
    done;
  List.rev !out

let equal a b = diff a b = []

let log_collection t phase ~copied ~scanned = Vec.push t.collection_log (phase, copied, scanned)

(* Per-collection pause durations. Gc_stats records only the work
   terms (the pause-time model lives above this library), so callers
   supply the model — Run passes Time_model.pause_ms. *)

let pause_histogram t ~pause_ms =
  let h = Hdr_histogram.create () in
  for i = 0 to Vec.length t.collection_log - 1 do
    let phase, copied, scanned = Vec.get t.collection_log i in
    Hdr_histogram.add h (pause_ms phase ~copied ~scanned)
  done;
  h

let retire t w (o : Kg_heap.Object_model.t) =
  let module O = Kg_heap.Object_model in
  if O.age w o >= 1 then Vec.push t.retired_mature_writes (O.writes w o)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let nursery_survival t = ratio t.nursery_survived_bytes t.nursery_alloc_bytes
let observer_survival t = ratio t.observer_survived_bytes t.observer_in_bytes

let mature_write_fraction t =
  ratio (t.app_writes_observer + t.app_writes_mature)
    (t.app_writes_nursery + t.app_writes_observer + t.app_writes_mature)

let top_fraction_writes t frac =
  let written =
    Vec.fold (fun acc w -> if w > 0 then w :: acc else acc) [] t.retired_mature_writes
  in
  let counts = Array.of_list written in
  if Array.length counts = 0 then 0.0
  else begin
    Array.sort (fun a b -> compare b a) counts;
    let total = Array.fold_left ( + ) 0 counts in
    let k = max 1 (int_of_float (frac *. float_of_int (Array.length counts))) in
    let top = ref 0 in
    for i = 0 to k - 1 do
      top := !top + counts.(i)
    done;
    ratio !top total
  end
