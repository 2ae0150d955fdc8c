(* Host-allocation regression tests.

   The runtime's per-op barrier paths must allocate nothing on the
   host, and the epoch driver's steady state must stay within a small
   per-op budget of minor-heap words. [Gc.minor_words] counts the
   calling domain's minor allocation; every run here stays on one
   domain (inline generation, no collector team), so it sees all of
   it.

   The per-op ceilings hold for the dev build, where modules are
   compiled [-opaque] and nothing is inlined across modules: there an
   optional [~domain] argument, a float returned from a call and the
   [death] stamp passed to [Runtime.alloc] each still box. Release
   builds allocate less. *)

open Kg_gc
module O = Kg_heap.Object_model
module Rt = Runtime
module Port = Kg_mem.Port

let check_bool = Alcotest.(check bool)

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A single-domain runtime whose port holds far more records than a
   test block issues, so nothing flushes inside the measured block. *)
let runtime collector =
  let map = Kg_mem.Address_map.hybrid () in
  let counters = Port.fresh_counters ~phases:Phase.count in
  let mem = Port.create ~capacity:(1 lsl 16) ~sink:(Port.Counting (map, counters)) () in
  let cfg = Gc_config.make ~nursery_mb:4 ~heap_mb:64 collector in
  Rt.create ~config:cfg ~mem ~map ~seed:1 ()

(* Stores and reads between two mature objects and between two nursery
   objects: barrier fast and slow paths (KG-W monitoring), no remset
   insertion (whose entries are heap data, not per-op overhead). *)
let test_barrier_paths_allocate_nothing () =
  List.iter
    (fun collector ->
      let rt = runtime collector in
      let a = Rt.alloc_boot rt ~size:256 ~heat:O.Cold ~ref_fields:4 in
      let b = Rt.alloc_boot rt ~size:256 ~heat:O.Cold ~ref_fields:4 in
      let c = Rt.alloc rt ~size:128 ~heat:O.Cold ~death:infinity ~ref_fields:2 in
      let d = Rt.alloc rt ~size:128 ~heat:O.Cold ~death:infinity ~ref_fields:2 in
      let block () =
        for _ = 1 to 200 do
          Rt.write_ref rt ~src:a ~tgt:b;
          Rt.write_ref rt ~src:c ~tgt:d;
          Rt.write_ref rt ~src:d ~tgt:a;
          Rt.write_prim rt a;
          Rt.write_prim rt c;
          Rt.read_burst rt a 4;
          Rt.read_burst rt c 8
        done
      in
      block ();
      Rt.flush_mem rt;
      let words = minor_words_of block in
      let name = Gc_config.name (Gc_config.make ~heap_mb:64 collector) in
      Alcotest.(check (float 0.0)) (name ^ ": minor words across 1400 barrier calls") 0.0 words)
    [ Gc_config.kg_w_default; Gc_config.Kg_nursery; Gc_config.Gen_immix ]

(* Runtime ops an epoch run applies (allocations, stores, read bursts):
   the same deterministic run again with an event hook counting them. *)
let ops_of run =
  let n = ref 0 in
  run (fun rt -> Rt.set_event_hook rt (fun _ -> incr n));
  !n

let two_domain_runtime () =
  let map = Kg_mem.Address_map.hybrid () in
  let mem, _ = Mem_iface.counting ~map in
  let cfg = Gc_config.make ~nursery_mb:4 ~heap_mb:32 Gc_config.kg_w_default in
  Rt.create ~domains:2 ~config:cfg ~mem ~map ~seed:1 ()

(* Warm one epoch run (buffers grow to their steady size), then measure
   a second; [hook] lets [ops_of] instrument the measured run only. *)
let per_op_words ~setup ~run =
  let measure hook =
    let rt = two_domain_runtime () in
    let w = setup rt in
    run w (256 * 1024);
    hook rt;
    let words = minor_words_of (fun () -> run w (2 * Kg_util.Units.mib)) in
    Rt.shutdown rt;
    words
  in
  let words = measure ignore in
  let ops = ops_of (fun hook -> ignore (measure hook)) in
  words /. float_of_int ops

let pjbb () = Kg_workload.Descriptor.find "pjbb"

(* Ceilings: about twice the dev-build figures measured when the flat
   op buffers went in (serve 4.0, mutator 10.8 words per op; release
   builds 0.3 and 0.4), against 53 words per op of the boxed-op driver
   they replaced. *)
let serve_ceiling = 8.0
let mutator_ceiling = 20.0

let test_serve_epoch_per_op () =
  let module S = Kg_serve.Server in
  let words =
    per_op_words
      ~setup:(fun rt ->
        let s =
          S.create ~live_mb:16 ~threads:2 ~oracle:true
            ~config:{ S.default_config with S.rate = 1024.0 }
            (pjbb ()) ~rt ~seed:3
        in
        S.allocate_startup s;
        s)
      ~run:(fun s alloc_bytes -> S.run s ~alloc_bytes)
  in
  check_bool
    (Printf.sprintf "serve epoch: %.2f minor words per op <= %.1f" words serve_ceiling)
    true (words <= serve_ceiling)

let test_mutator_epoch_per_op () =
  let module M = Kg_workload.Mutator in
  let words =
    per_op_words
      ~setup:(fun rt ->
        let m = M.create ~live_mb:16 ~threads:2 ~oracle:true (pjbb ()) ~rt ~seed:3 in
        M.allocate_startup m;
        m)
      ~run:(fun m alloc_bytes -> M.run m ~alloc_bytes ())
  in
  check_bool
    (Printf.sprintf "mutator epoch: %.2f minor words per op <= %.1f" words mutator_ceiling)
    true (words <= mutator_ceiling)

let () =
  Alcotest.run "kg_alloc"
    [
      ( "host allocation",
        [
          Alcotest.test_case "barrier paths allocate nothing" `Quick
            test_barrier_paths_allocate_nothing;
          Alcotest.test_case "serve epoch per-op ceiling" `Quick test_serve_epoch_per_op;
          Alcotest.test_case "mutator epoch per-op ceiling" `Quick test_mutator_epoch_per_op;
        ] );
    ]
