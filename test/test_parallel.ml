(* Determinism tests for the simulated multicore mutators.

   The epoch protocol promises that a run with N mutator domains is a
   pure function of (seed, schedule_seed, N): each domain generates an
   op stream and a schedule-seeded merge applies them
   deterministically, all on the calling OCaml domain. *)

open Kg_sim
module GS = Kg_gc.Gc_stats

let check_bool = Alcotest.(check bool)

(* Everything a run exposes that could diverge: collection counts,
   allocation and write demographics, remset activity, and the
   memory-level traffic. *)
let fingerprint (r : Run.result) =
  let st = r.Run.stats in
  ( ( st.GS.nursery_gcs,
      st.GS.observer_gcs,
      st.GS.major_gcs,
      st.GS.nursery_alloc_bytes,
      st.GS.large_allocs ),
    ( st.GS.ref_writes,
      st.GS.prim_writes,
      st.GS.reads,
      st.GS.gen_remset_inserts,
      st.GS.obs_remset_inserts ),
    ( st.GS.app_write_bytes_pcm,
      st.GS.app_write_bytes_dram,
      st.GS.copied_bytes_nursery,
      st.GS.monitor_header_writes,
      st.GS.barrier_fast_paths ),
    ( r.Run.mem_pcm_write_bytes,
      r.Run.mem_dram_write_bytes,
      r.Run.mem_pcm_read_bytes,
      r.Run.mem_dram_read_bytes ) )

let quick ?(schedule_seed = 0) threads =
  fingerprint
    (Run.run ~seed:11 ~scale:512 ~heap_scale:8 ~cap_mb:8 ~threads ~schedule_seed
       ~mode:Run.Count Run.pcm_only (Kg_workload.Descriptor.find "xalan"))

(* Determinism stress — domains in {1, 2, 4}, three repeats each,
   every repeat byte-identical for its domain count. *)
let test_repeat_determinism () =
  List.iter
    (fun threads ->
      let a = quick threads and b = quick threads and c = quick threads in
      check_bool (Printf.sprintf "%d domains reproducible" threads) true
        (a = b && b = c))
    [ 1; 2; 4 ]

(* The schedule seed is a real degree of freedom: different merges
   must (for this workload) produce different interleavings, visible
   in the remset insert counts — while each stays reproducible. *)
let test_schedule_seed_varies () =
  let a = quick ~schedule_seed:0 2
  and b = quick ~schedule_seed:1 2
  and a' = quick ~schedule_seed:0 2 in
  check_bool "seed 0 reproducible" true (a = a');
  check_bool "different schedules differ" true (a <> b)

(* Simulated domains are streams of ops, not host domains, so their
   number is not capped by OCaml's limit of 128 domains. *)
let test_beyond_domain_limit () =
  let r =
    Run.run ~seed:42 ~scale:512 ~heap_scale:8 ~cap_mb:4 ~threads:129 ~mode:Run.Count Run.kg_w
      (Kg_workload.Descriptor.find "xalan")
  in
  check_bool "allocated the run" true (r.Run.alloc_bytes >= 4 * Kg_util.Units.mib);
  check_bool "mutated the heap" true (r.Run.stats.GS.ref_writes > 0)

let () =
  Alcotest.run "kg_parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "repeat stress 1/2/4" `Quick test_repeat_determinism;
          Alcotest.test_case "schedule seed varies" `Quick test_schedule_seed_varies;
          Alcotest.test_case "129 domains, above the OCaml limit" `Quick
            test_beyond_domain_limit;
        ] );
    ]
