(* Tests for the modeled parallel collector and for collections on a
   multi-domain runtime.

   Every collection phase is one sequential pass on the calling domain,
   whatever the domain count. [parallel_gc] is a model flag: it divides
   the modeled collection time by the domain count and changes nothing
   else. These tests check that flag, and run collection edge cases
   (empty mature space, single live object, more domains than live
   objects, a defrag-triggering heap) through the heap auditor on a
   4-domain runtime. *)

open Kg_gc
open Kg_sim
module O = Kg_heap.Object_model
module Rt = Runtime
module GS = Gc_stats

let check_bool = Alcotest.(check bool)
let mib = Kg_util.Units.mib

(* ------------------------------------------------------------------ *)
(* The parallel_gc model flag                                          *)

let quick ~parallel_gc threads =
  Run.run ~seed:11 ~scale:512 ~heap_scale:8 ~cap_mb:8 ~threads ~parallel_gc ~mode:Run.Simulate
    Run.kg_w (Kg_workload.Descriptor.find "antlr")

(* Only the modeled collection time may differ — and it must shrink
   when there is collection work to divide. *)
let test_parallel_gc_shrinks_gc_time () =
  let rp = quick ~parallel_gc:true 4 in
  let rs = quick ~parallel_gc:false 4 in
  check_bool "stats equal" true (GS.equal rp.Run.stats rs.Run.stats);
  check_bool "device traffic equal" true
    (rp.Run.mem_pcm_write_bytes = rs.Run.mem_pcm_write_bytes
    && rp.Run.mem_dram_write_bytes = rs.Run.mem_dram_write_bytes);
  check_bool "serial run collected" true
    (rs.Run.time_parts.Time_model.gc_ns > 0.0);
  check_bool "parallel gc time smaller" true
    (rp.Run.time_parts.Time_model.gc_ns < rs.Run.time_parts.Time_model.gc_ns)

(* The heap auditor stays green on a 4-domain run, the collector team
   that the modeled parallel collector divides the work over. *)
let test_auditor_green_4_domains () =
  let r =
    Run.run ~seed:11 ~scale:512 ~heap_scale:8 ~cap_mb:8 ~threads:4 ~check:true
      ~mode:Run.Count Run.kg_w
      (Kg_workload.Descriptor.find "xalan")
  in
  Alcotest.(check (list string)) "no violations" [] r.Run.check_violations

(* ------------------------------------------------------------------ *)
(* Collection edge cases                                               *)

(* Drive one scripted heap population on a bare 4-domain runtime, force
   a final major collection, and check the auditor's verdict on the
   final heap. Returns the statistics for the scenario's own
   assertions. *)
let scenario ?defrag_threshold name script =
  let cfg =
    Gc_config.make ~nursery_mb:1 ?defrag_threshold ~heap_mb:8 Gc_config.kg_w_default
  in
  let map = Kg_mem.Address_map.hybrid () in
  let mem, counters = Mem_iface.counting ~map in
  let rt = Rt.create ~domains:4 ~config:cfg ~mem ~map ~seed:1 () in
  script rt;
  Rt.major_gc rt;
  Mem_iface.flush mem;
  Alcotest.(check (list string))
    (name ^ ": auditor green")
    []
    (List.map Verify.to_string (Verify.audit ~counters rt));
  Rt.stats rt

let alloc ?(size = 128) ?(death = infinity) rt =
  Rt.alloc rt ~size ~heat:O.Cold ~death ~ref_fields:2

let test_edge_empty_mature () =
  ignore (scenario "empty mature space" (fun _ -> ()))

let test_edge_single_live () =
  ignore (scenario "single live object" (fun rt -> ignore (alloc rt)))

(* More domains than live objects: most nurseries are empty, and the
   two survivors must still be promoted and marked. *)
let test_edge_domains_exceed_live () =
  let sp =
    scenario "domains > live objects" (fun rt ->
        ignore (alloc rt);
        ignore (alloc rt))
  in
  check_bool "collected" true (sp.GS.major_gcs >= 1)

(* A fragmented mature heap under an always-on defragmentation
   threshold: most promoted objects die mid-run, so the majors leave
   sparse blocks and the defragmenting evacuation runs too. *)
let test_edge_defrag () =
  let populate rt =
    (* 6 MiB of 128-byte objects; 1 in 16 immortal, the rest dying at
       the 5 MiB mark — late enough to reach the mature space alive
       (observer evacuations land around the 3 MiB mark), early enough
       to be swept by the final major, which strands the immortals on
       ~12%-marked blocks: exactly the §6.3 evacuation case. (1 in 8
       would mark exactly lines_per_block/4 lines per block — one line
       per four — and sit right on the candidate cutoff.) *)
    for i = 1 to (6 * mib) / 128 do
      let death = if i land 15 = 0 then infinity else float_of_int (5 * mib) in
      ignore (alloc ~death rt)
    done;
    Rt.major_gc rt
  in
  let sp = scenario ~defrag_threshold:0.1 "defrag-triggering heap" populate in
  check_bool "majors ran" true (sp.GS.major_gcs >= 2);
  check_bool "defrag moved objects" true (sp.GS.copied_bytes_major > 0)

let () =
  Alcotest.run "kg_parallel_gc"
    [
      ( "differential",
        [
          Alcotest.test_case "only modeled gc time shrinks" `Quick
            test_parallel_gc_shrinks_gc_time;
          Alcotest.test_case "auditor green on the team" `Quick
            test_auditor_green_4_domains;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "empty mature space" `Quick test_edge_empty_mature;
          Alcotest.test_case "single live object" `Quick test_edge_single_live;
          Alcotest.test_case "domains > live objects" `Quick
            test_edge_domains_exceed_live;
          Alcotest.test_case "defrag-triggering heap" `Quick test_edge_defrag;
        ] );
    ]
