(* Determinism and SLO tests for the Kg_serve request/response
   mutator.

   Serve runs ride the same epoch protocol as the batch mutator, so
   they inherit its promise: a run is a pure function of
   (seed, schedule_seed, domains, config). Beyond repeat determinism
   the tests check non-degeneracy of the SLO histograms themselves (a
   pause profile with max <= P50 or a zero P50 means the recorder is
   wired wrong). *)

open Kg_sim
module GS = Kg_gc.Gc_stats
module H = Kg_util.Hdr_histogram
module S = Kg_serve.Server

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let serve_run ?(rate = 1024.0) threads =
  Run.run ~seed:11 ~scale:512 ~heap_scale:8 ~cap_mb:8 ~threads
    ~serve:{ S.default_config with S.rate } ~mode:Run.Count Run.kg_w
    (Kg_workload.Descriptor.find "pjbb")

let metrics (r : Run.result) =
  match r.Run.serve with
  | Some s -> s
  | None -> Alcotest.fail "serve run carries no serve metrics"

(* Two runs of one configuration agree on every statistic, request
   counter and histogram bucket. *)
let test_serve_repeat_determinism () =
  List.iter
    (fun threads ->
      let ra = serve_run threads and rb = serve_run threads in
      let sa = metrics ra and sb = metrics rb in
      check_bool (Printf.sprintf "%d domains reproducible" threads) true
        (GS.equal ra.Run.stats rb.Run.stats
        && sa.Run.requests = sb.Run.requests
        && sa.Run.t1_hits = sb.Run.t1_hits
        && sa.Run.t2_hits = sb.Run.t2_hits
        && sa.Run.backend_fills = sb.Run.backend_fills
        && sa.Run.sessions_churned = sb.Run.sessions_churned
        && H.equal sa.Run.pause_hist sb.Run.pause_hist
        && H.equal sa.Run.latency_hist sb.Run.latency_hist))
    [ 1; 2 ]

(* Non-degenerate SLO histograms: requests flowed, every request got a
   latency sample, pauses were recorded, and the profile has spread
   sane enough to read percentiles off (max >= P50 > 0). *)
let test_serve_histograms_non_degenerate () =
  let r = serve_run 1 in
  let s = metrics r in
  check_bool "requests served" true (s.Run.requests > 0);
  check_int "one latency sample per request" s.Run.requests (H.count s.Run.latency_hist);
  let st = r.Run.stats in
  (* One pause per stop-the-world event. Observer and major
     collections subsume a nursery collection (§4.2.2), so every STW
     event bumps [nursery_gcs] exactly once while the GC hook — and
     hence the histogram — fires once per event. *)
  check_int "one pause per STW event" st.GS.nursery_gcs (H.count s.Run.pause_hist);
  check_bool "pause P50 positive" true (H.p50 s.Run.pause_hist > 0.0);
  check_bool "pause max >= P50" true
    (H.max_value s.Run.pause_hist >= H.p50 s.Run.pause_hist *. (1.0 -. H.relative_error s.Run.pause_hist));
  check_bool "latency P50 positive" true (H.p50 s.Run.latency_hist > 0.0);
  check_bool "latency P99 >= P50" true (H.p99 s.Run.latency_hist >= H.p50 s.Run.latency_hist)

(* The latency model's load dependence: driving the arrival rate
   toward the per-domain service capacity must raise queueing delay. *)
let test_serve_latency_rises_with_rate () =
  let p99 rate = H.p99 (metrics (serve_run ~rate 1)).Run.latency_hist in
  check_bool "P99 latency grows with offered load" true (p99 1792.0 > p99 256.0)

(* The cache and session machinery actually runs: hits, fills and
   churn all present under the default config. *)
let test_serve_cache_activity () =
  let s = metrics (serve_run 1) in
  check_bool "tier1 hits" true (s.Run.t1_hits > 0);
  check_bool "backend fills" true (s.Run.backend_fills > 0);
  check_bool "sessions churned" true (s.Run.sessions_churned > 0)

(* Direct driver sanity: attach_pause_recorder refuses a second
   attach, and Server.create rejects a thread/runtime mismatch like
   the batch mutator does. *)
let test_serve_attach_twice () =
  let map = Kg_mem.Address_map.hybrid () in
  let cfg = Kg_gc.Gc_config.make ~heap_mb:48 Kg_gc.Gc_config.kg_w_default in
  let mem = Kg_gc.Mem_iface.null () in
  let rt = Kg_gc.Runtime.create ~config:cfg ~mem ~map ~seed:3 () in
  let srv = S.create ~live_mb:16 (Kg_workload.Descriptor.find "pjbb") ~rt ~seed:4 in
  let pause_ms = Run.pause_model () in
  S.attach_pause_recorder srv ~pause_ms;
  try
    S.attach_pause_recorder srv ~pause_ms;
    Alcotest.fail "second attach should raise"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "kg_serve"
    [
      ( "differential",
        [
          Alcotest.test_case "repeat determinism" `Quick test_serve_repeat_determinism;
        ] );
      ( "slo",
        [
          Alcotest.test_case "histograms non-degenerate" `Quick
            test_serve_histograms_non_degenerate;
          Alcotest.test_case "latency rises with load" `Quick test_serve_latency_rises_with_rate;
          Alcotest.test_case "cache activity" `Quick test_serve_cache_activity;
          Alcotest.test_case "pause recorder attaches once" `Quick test_serve_attach_twice;
        ] );
    ]
