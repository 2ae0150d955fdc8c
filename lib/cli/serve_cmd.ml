(* kingsguard serve: run the request/response mutator under one
   collector and print the SLO view of the run — request counters,
   cache behaviour, and the pause/latency histograms. *)

open Cmdliner
module R = Kg_sim.Run
module D = Kg_workload.Descriptor
module GS = Kg_gc.Gc_stats
module H = Kg_util.Hdr_histogram
module S = Kg_serve.Server

let doc = "Serve a request/response workload and report pause/latency SLOs"

let spec_of_string = function
  | "dram-only" -> Ok R.dram_only
  | "pcm-only" -> Ok R.pcm_only
  | "kg-n" -> Ok R.kg_n
  | "kg-b" -> Ok R.kg_b
  | "kg-w" -> Ok R.kg_w
  | s -> Error (`Msg (Printf.sprintf "unknown collector %S" s))

let collector_names = "dram-only|pcm-only|kg-n|kg-b|kg-w"

let print_serve (r : R.result) (s : R.serve_metrics) =
  let st = r.R.stats in
  let pctf part whole =
    if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole
  in
  let probes = s.R.t1_hits + s.R.t2_hits + s.R.backend_fills in
  Printf.printf "benchmark        %s\n" r.R.bench.D.name;
  Printf.printf "collector        %s\n" (R.label r.R.spec);
  Printf.printf "offered rate     %.0f req/s\n" s.R.rate;
  Printf.printf "requests         %d (modeled duration %.3f s)\n" s.R.requests
    (if s.R.rate > 0.0 then float_of_int s.R.requests /. s.R.rate else 0.0);
  Printf.printf "cache            tier1 %.1f%%, tier2 %.1f%%, backend %.1f%% of %d probes\n"
    (pctf s.R.t1_hits probes) (pctf s.R.t2_hits probes)
    (pctf s.R.backend_fills probes)
    probes;
  Printf.printf "sessions churned %d\n" s.R.sessions_churned;
  Printf.printf "allocated        %d MB\n" (r.R.alloc_bytes / 1048576);
  (* Observer and major collections subsume a nursery pass, so
     [nursery_gcs] counts every stop-the-world event once — the same
     total the pause histogram's [n] reports. *)
  Printf.printf "collections      %d STW (%d nursery-only, %d observer, %d major)\n"
    st.GS.nursery_gcs
    (st.GS.nursery_gcs - st.GS.observer_gcs - st.GS.major_gcs)
    st.GS.observer_gcs st.GS.major_gcs;
  Printf.printf "gc pause ms      %s\n" (H.summary s.R.pause_hist);
  Printf.printf "req latency ms   %s\n" (H.summary s.R.latency_hist)

let serve_cmd bench collector rate simulate scale heap_scale cap_mb seed domains
    schedule_seed parallel_gc =
  match spec_of_string collector with
  | Error (`Msg m) ->
    prerr_endline m;
    1
  | Ok spec -> (
    match D.find bench with
    | exception Not_found ->
      Printf.eprintf "unknown benchmark %S; try: %s\n" bench (String.concat ", " (D.names ()));
      1
    | d ->
      let mode = if simulate then R.Simulate else R.Count in
      let serve = { S.default_config with S.rate = float_of_int rate } in
      let r =
        R.run ~seed ~scale ~heap_scale ~cap_mb ~threads:domains ~schedule_seed ~parallel_gc
          ~serve ~mode spec d
      in
      match r.R.serve with
      | None -> prerr_endline "internal error: serve run produced no serve metrics"; 1
      | Some s ->
        print_serve r s;
        0)

let bench_arg =
  let doc = "Benchmark supplying demographics (see `kingsguard list')." in
  Arg.(value & pos 0 string "pjbb" & info [] ~docv:"BENCHMARK" ~doc)

let collector_arg =
  let doc = Printf.sprintf "Collector / memory system: %s." collector_names in
  Arg.(value & opt string "kg-w" & info [ "c"; "collector" ] ~docv:"COLLECTOR" ~doc)

let rate_arg =
  let doc = "Open-loop arrival rate, requests/sec across all domains." in
  Arg.(value & opt int 1024 & info [ "rate" ] ~docv:"REQ_S" ~doc)

let simulate_arg =
  let doc = "Run the full cache/memory simulation instead of barrier-level counting." in
  Arg.(value & flag & info [ "simulate" ] ~doc)

let scale_arg =
  let doc = "Divide the benchmark's allocation volume by this factor." in
  Arg.(value & opt int 8 & info [ "scale" ] ~doc)

let heap_scale_arg =
  let doc = "Divide the benchmark's live-heap target by this factor." in
  Arg.(value & opt int 3 & info [ "heap-scale" ] ~doc)

let cap_arg =
  let doc = "Cap the run length in MB of allocation." in
  Arg.(value & opt int 256 & info [ "cap-mb" ] ~doc)

let seed_arg =
  let doc = "PRNG seed (runs are deterministic given a seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let schedule_seed_arg =
  let doc = "Seed for the deterministic merge schedule of multi-domain runs." in
  Arg.(value & opt int 0 & info [ "schedule-seed" ] ~doc)

let term =
  Term.(
    const serve_cmd $ bench_arg $ collector_arg $ rate_arg $ simulate_arg $ scale_arg
    $ heap_scale_arg $ cap_arg $ seed_arg $ Cli_args.domains_arg $ schedule_seed_arg
    $ Cli_args.parallel_gc_arg)
