(* One repetition of a perfbench workload, reported as one JSON line.

   The host-time benchmark (perfbench/run.py) calls this program once
   per repetition, so every repetition runs in a fresh process and its
   peak resident memory is its own. Roles:

   - [reference]: a run workload through the library's own driver
     ([Kg_sim.Run.run]), for the self-test digest and the modeled
     block;
   - [oracle]: the same run through the inline oracle protocol;
   - [timed]: the benchmark's own assembly of the run from the public
     calls [Run.run] makes (or, for the figure workload, the engine
     resolving and rendering Figure 7), timing set-up and the whole
     run;
   - [traced]: the same with every layer boundary wrapped, reporting
     host time per layer.

   Usage: kgbench ROLE WORKLOAD SEED [TMPDIR] *)

module R = Kg_sim.Run
module D = Kg_workload.Descriptor
module GS = Kg_gc.Gc_stats
module RT = Kg_gc.Runtime
module MI = Kg_gc.Mem_iface
module Phase = Kg_gc.Phase
module Port = Kg_mem.Port
module M = Kg_sim.Machine
module TM = Kg_sim.Time_model
module S = Kg_serve.Server
module E = Kg_sim.Experiments
module X = Kg_engine.Exec
module H = Kg_util.Hdr_histogram

let now = Unix.gettimeofday
let mib = float_of_int Kg_util.Units.mib

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type run_wl = {
  bench : string;
  mode : R.mode;
  spec : R.spec;
  scale : int;
  heap_scale : int;
  cap_mb : int;
  threads : int;
  parallel_gc : bool;
  rate : int option;  (** serve request rate; [None] = batch mutator *)
}

(* Scales are the CLI's defaults for [kingsguard run] / [kingsguard serve].
   Caps keep one repetition near 3-4 s on a 2-vCPU host, so a 50-s run
   holds a dozen repetitions. *)
let xalan mode cap_mb =
  { bench = "xalan"; mode; spec = R.kg_w; scale = 8; heap_scale = 3; cap_mb; threads = 1;
    parallel_gc = false; rate = None }

type workload = Run of run_wl | Fig7 of E.opts

let workload = function
  | "sim-xalan-kgw" -> Run (xalan R.Simulate 16)
  | "count-xalan-kgw" -> Run (xalan R.Count 32)
  | "serve-pjbb-2d" ->
    Run { (xalan R.Count 16) with bench = "pjbb"; threads = 2; parallel_gc = true;
          rate = Some 1024 }
  | "fig7-engine" -> Fig7 { E.quick_opts with E.cap_mb = 1 }
  | w -> failwith ("unknown workload " ^ w)

let serve_config rate = { S.default_config with S.rate = float_of_int rate }

(* ------------------------------------------------------------------ *)
(* Digest of every simulated statistic                                  *)

(* Two parts: [sim] covers collector counters, device traffic and the
   serve instruments; [time] the modeled execution-time parts. The
   inline oracle models the same machine but runs its collector
   inline, so only [sim] is compared against it. *)
let sim_text ~alloc_bytes (st : GS.t) (tr : MI.stats) ~wear_cov serve =
  let b = Buffer.create 4096 in
  let ints l = List.iter (fun i -> Buffer.add_string b (string_of_int i); Buffer.add_char b ' ') l in
  ints
    [ alloc_bytes; st.app_writes_nursery; st.app_writes_observer; st.app_writes_mature;
      st.app_write_bytes_dram; st.app_write_bytes_pcm; st.ref_writes; st.prim_writes;
      st.reads; st.gen_remset_inserts; st.obs_remset_inserts; st.monitor_header_writes;
      st.barrier_fast_paths; st.nursery_gcs; st.observer_gcs; st.major_gcs;
      st.copied_bytes_nursery; st.copied_bytes_observer; st.copied_bytes_major;
      st.remset_slot_updates; st.mark_header_writes; st.mark_table_writes;
      st.scanned_objects; st.nursery_alloc_bytes; st.nursery_survived_bytes;
      st.observer_in_bytes; st.observer_survived_bytes; st.observer_to_dram_bytes;
      st.observer_to_pcm_bytes; st.large_allocs; st.large_allocs_in_nursery;
      st.mature_moves_to_dram; st.mature_moves_to_pcm; st.los_moves_to_dram ];
  Buffer.add_string b "\nretired ";
  ints (Array.to_list (Kg_util.Vec.to_array st.retired_mature_writes));
  Buffer.add_string b "\nlog ";
  Array.iter
    (fun (p, c, s) -> ints [ Phase.to_tag p; c; s ])
    (Kg_util.Vec.to_array st.collection_log);
  Buffer.add_string b "\ntraffic ";
  ints
    ([ tr.s_dram_read_bytes; tr.s_dram_write_bytes; tr.s_pcm_read_bytes; tr.s_pcm_write_bytes ]
    @ Array.to_list tr.s_pcm_write_bytes_by_phase);
  Printf.bprintf b "\nwear %h" wear_cov;
  Option.iter
    (fun (s : R.serve_metrics) ->
      Buffer.add_string b "\nserve ";
      ints [ s.requests; s.t1_hits; s.t2_hits; s.backend_fills; s.sessions_churned ];
      List.iter
        (fun h ->
          Printf.bprintf b "\nhist %h " (H.max_value h);
          List.iter (fun (k, n) -> ints [ k; n ]) (H.nonzero h))
        [ s.pause_hist; s.latency_hist ])
    serve;
  Buffer.contents b

let time_text (p : TM.parts) =
  Printf.sprintf "%h %h %h %h %h %h" p.app_ns p.gc_ns p.remset_ns p.monitor_ns p.mem_base_ns
    p.mem_pcm_extra_ns

let md5 s = Digest.to_hex (Digest.string s)

let digests sim time = (md5 (sim ^ "\n" ^ time), md5 sim)

let digests_of_result (r : R.result) =
  let tr : MI.stats =
    {
      s_dram_read_bytes = int_of_float r.mem_dram_read_bytes;
      s_dram_write_bytes = int_of_float r.mem_dram_write_bytes;
      s_pcm_read_bytes = int_of_float r.mem_pcm_read_bytes;
      s_pcm_write_bytes = int_of_float r.mem_pcm_write_bytes;
      s_pcm_write_bytes_by_phase = Array.map int_of_float r.pcm_writes_by_phase;
    }
  in
  digests
    (sim_text ~alloc_bytes:r.alloc_bytes r.stats tr ~wear_cov:r.wear_cov r.serve)
    (time_text r.time_parts)

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)

type json = Num of float | Int of int | Str of string | Obj of (string * json) list

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_json = function
  | Num f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | Int i -> string_of_int i
  | Str s -> json_string s
  | Obj kvs ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ to_json v) kvs)
    ^ "}"

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ------------------------------------------------------------------ *)
(* Layer tracer                                                         *)

(* All-float record: the fields stay unboxed, so the per-op event hook
   allocates nothing beyond the clock read. *)
type clock = {
  mutable mark : float;  (** last op event or collection end *)
  mutable deliv_at_mark : float;
  mutable deliv : float;  (** cumulative sink-driver time *)
  mutable gc_incl : float;  (** cumulative collection intervals *)
  mutable gc_deliv : float;  (** sink-driver time inside collections *)
}

type tracer = {
  c : clock;
  mutable ops : int;
  mutable records : int;
  mutable batches : int;
  gc_ms : float list array;  (** inclusive interval per collection, by phase tag *)
  gc_self : float array;  (** by phase tag *)
}

let tracer () =
  {
    c = { mark = now (); deliv_at_mark = 0.0; deliv = 0.0; gc_incl = 0.0; gc_deliv = 0.0 };
    ops = 0;
    records = 0;
    batches = 0;
    gc_ms = Array.make Phase.count [];
    gc_self = Array.make Phase.count 0.0;
  }

(* A sink driver whose every delivery is timed. *)
let timed_driver tr run drv_stats =
  {
    Port.run =
      (fun (b : Port.batch) ->
        let t0 = now () in
        run b;
        tr.c.deliv <- tr.c.deliv +. (now () -. t0);
        tr.records <- tr.records + b.len;
        tr.batches <- tr.batches + 1);
    drv_stats;
  }

let set_mark tr t =
  tr.c.mark <- t;
  tr.c.deliv_at_mark <- tr.c.deliv

(* A collection runs from the last op event (or the previous
   collection's end) to the GC hook that closes it. *)
let on_gc tr phase =
  let t = now () in
  let incl = t -. tr.c.mark and d = tr.c.deliv -. tr.c.deliv_at_mark in
  tr.c.gc_incl <- tr.c.gc_incl +. incl;
  tr.c.gc_deliv <- tr.c.gc_deliv +. d;
  let k = Phase.to_tag phase in
  tr.gc_ms.(k) <- (incl *. 1e3) :: tr.gc_ms.(k);
  tr.gc_self.(k) <- tr.gc_self.(k) +. (incl -. d);
  set_mark tr t

let on_event tr _ =
  tr.ops <- tr.ops + 1;
  set_mark tr (now ())

(* Run [f] as a top-level span; return its result and its self time
   (duration minus the collections and deliveries inside it). *)
let span tr f =
  let t0 = now () in
  set_mark tr t0;
  let d0 = tr.c.deliv and g0 = tr.c.gc_incl and gd0 = tr.c.gc_deliv in
  let x = f () in
  let dur = now () -. t0 in
  let gc = tr.c.gc_incl -. g0 and deliv_out = tr.c.deliv -. d0 -. (tr.c.gc_deliv -. gd0) in
  (x, dur -. gc -. deliv_out)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* The highest percentile with at least ten samples beyond it: the
   11th-largest sample (0 with fewer than 11). *)
let pmax10 sorted =
  let n = Array.length sorted in
  if n < 11 then 0.0 else sorted.(n - 11)

(* ------------------------------------------------------------------ *)
(* Run workloads                                                        *)

let gc_config (w : run_wl) b =
  let live_mb = max 16 (D.live_mb b / w.heap_scale) in
  let s = w.spec in
  ( live_mb,
    Kg_gc.Gc_config.make ~nursery_mb:s.nursery_mb ?observer_mb:s.observer_mb
      ~write_threshold:s.write_threshold ?pcm_write_trigger_mb:s.pcm_write_trigger_mb
      ~heap_mb:(2 * live_mb) s.collector )

let library_run ?(oracle = false) (w : run_wl) ~seed =
  R.run ~seed ~scale:w.scale ~heap_scale:w.heap_scale ~cap_mb:w.cap_mb ~threads:w.threads ~oracle
    ~parallel_gc:w.parallel_gc ?serve:(Option.map serve_config w.rate) ~mode:w.mode w.spec
    (D.find w.bench)

(* The run, assembled from the calls [Run.run] makes. With a tracer,
   the sink is re-installed as a timed driver around the same kernel
   (the cache hierarchy's batch driver, or [Port.count_batch] — the
   counting sink's own function), and the runtime's event and GC hooks
   bracket every collection. *)
let assembled ?tr (w : run_wl) ~seed =
  let b = D.find w.bench in
  let live_mb, cfg = gc_config w b in
  let alloc_bytes = Kg_workload.Mutator.scaled_alloc_bytes b ~scale:w.scale ~cap_mb:w.cap_mb in
  let layers = ref [] in
  let note k v = layers := (k, v) :: !layers in
  let timed_span name f =
    match tr with
    | None -> f ()
    | Some tr ->
      let x, self = span tr f in
      note name self;
      x
  in
  let t0 = now () in
  let machine, map, mem =
    timed_span "machine.build_s" (fun () ->
        match w.mode with
        | R.Simulate ->
          let m = M.build w.spec.system in
          let mem =
            match tr with
            | None -> M.port m
            | Some tr ->
              let d = MI.hierarchy_driver m.M.hier in
              Port.create ~sink:(Port.Cache_sim (timed_driver tr d.Port.run d.Port.drv_stats)) ()
          in
          (Some m, m.M.map, mem)
        | R.Count -> (
          let map = M.map_of w.spec.system in
          match tr with
          | None -> (None, map, fst (MI.counting ~map))
          | Some tr ->
            let c = Port.fresh_counters ~phases:Phase.count in
            let drv =
              timed_driver tr (Port.count_batch map c) (fun () -> Port.stats_of_counters c)
            in
            (None, map, Port.create ~sink:(Port.Cache_sim drv) ())))
  in
  let rt =
    timed_span "runtime.create_s" (fun () ->
        RT.create ~domains:w.threads ~parallel_gc:w.parallel_gc ~config:cfg ~mem ~map ~seed ())
  in
  Fun.protect ~finally:(fun () -> RT.shutdown rt) @@ fun () ->
  Option.iter
    (fun tr ->
      RT.set_gc_hook rt (on_gc tr);
      RT.set_event_hook rt (on_event tr))
    tr;
  let run, requests =
    timed_span "workload.startup_s" (fun () ->
        match w.rate with
        | None ->
          let mu =
            Kg_workload.Mutator.create ~live_mb ~threads:w.threads b ~rt ~seed:(seed + 1)
          in
          Kg_workload.Mutator.allocate_startup mu;
          GS.reset (RT.stats rt);
          ((fun () -> Kg_workload.Mutator.run mu ~alloc_bytes ()), fun () -> None)
        | Some rate ->
          let srv =
            S.create ~live_mb ~threads:w.threads ~config:(serve_config rate) b ~rt
              ~seed:(seed + 1)
          in
          S.allocate_startup srv;
          GS.reset (RT.stats rt);
          S.attach_pause_recorder srv
            ~pause_ms:(R.pause_model ~domains:w.threads ~parallel_gc:w.parallel_gc ());
          ( (fun () -> S.run srv ~alloc_bytes),
            fun () ->
              Some
                {
                  R.requests = S.request_count srv;
                  rate = float_of_int rate;
                  t1_hits = S.tier1_hits srv;
                  t2_hits = S.tier2_hits srv;
                  backend_fills = S.backend_fills srv;
                  sessions_churned = S.sessions_churned srv;
                  pause_hist = S.pauses srv;
                  latency_hist = S.latencies srv;
                } ))
  in
  let setup_s = now () -. t0 in
  let clock0 = RT.now rt in
  let ops0 = match tr with Some tr -> tr.ops | None -> 0 in
  let run_t0 = now () in
  timed_span "workload.self_s" run;
  let run_s = now () -. run_t0 in
  let ops = match tr with Some tr -> tr.ops - ops0 | None -> 0 in
  let steady_mb = (RT.now rt -. clock0) /. mib in
  RT.flush_retirement_stats rt;
  MI.flush mem;
  let drain_t0 = now () in
  Option.iter M.drain machine;
  let drain_s = now () -. drain_t0 in
  let traffic = MI.stats mem in
  let stats = RT.stats rt in
  let parts =
    TM.cpu_parts ~domains:w.threads ~parallel_gc:w.parallel_gc
      ~intensity:b.D.cpu_intensity stats ~alloc_bytes
  in
  let parts = match machine with Some m -> TM.with_machine parts m | None -> parts in
  let wall_s = now () -. t0 in
  let wear_cov =
    match machine with
    | Some { M.wear = Some wr; _ } -> Kg_mem.Wear.write_distribution_cov wr
    | _ -> 0.0
  in
  let serve = requests () in
  let digest, _ = digests (sim_text ~alloc_bytes stats traffic ~wear_cov serve) (time_text parts) in
  let nreq = match serve with Some s -> s.R.requests | None -> 0 in
  let base =
    [
      ("digest", Str digest);
      ("wall_s", Num wall_s);
      ("setup_s", Num setup_s);
      ("steady_mb", Num steady_mb);
      ("runs", Int 1);
      ("requests", Int nreq);
    ]
  in
  match tr with
  | None -> base
  | Some tr ->
    let f = float_of_int in
    let simulate = w.mode = R.Simulate in
    let deliv = tr.c.deliv in
    let per_rec s n = if n = 0 then 0.0 else s *. 1e9 /. f n in
    let cache_s, port_s = if simulate then (deliv +. drain_s, 0.0) else (0.0, deliv) in
    let pick flag n = if flag then n else 0 in
    let workload_self = List.assoc "workload.self_s" !layers in
    let gc_layers =
      List.concat_map
        (fun (name, p) ->
          let k = Phase.to_tag p in
          let sorted = Array.of_list tr.gc_ms.(k) in
          Array.sort compare sorted;
          [
            ("gc." ^ name ^ ".count", Int (Array.length sorted));
            ("gc." ^ name ^ ".self_s", Num tr.gc_self.(k));
            ("gc." ^ name ^ ".host_ms_p50", Num (quantile sorted 0.5));
            ("gc." ^ name ^ ".host_ms_pmax10", Num (pmax10 sorted));
          ])
        [ ("nursery", Phase.Nursery_gc); ("observer", Phase.Observer_gc); ("major", Phase.Major_gc) ]
    in
    let gc_self_total = Array.fold_left ( +. ) 0.0 tr.gc_self in
    let named = List.fold_left (fun a (_, v) -> a +. v) 0.0 !layers in
    base
    @ List.map (fun (k, v) -> (k, Num v)) (List.rev !layers)
    @ [
        ("cache.self_s", Num cache_s);
        ("cache.records", Int (pick simulate tr.records));
        ("cache.batches", Int (pick simulate tr.batches));
        ("cache.ns_per_record", Num (if simulate then per_rec deliv tr.records else 0.0));
        ("cache.drain_s", Num drain_s);
        ("port.count.self_s", Num port_s);
        ("port.records", Int (pick (not simulate) tr.records));
        ("port.batches", Int (pick (not simulate) tr.batches));
        ("port.ns_per_record", Num (if simulate then 0.0 else per_rec deliv tr.records));
      ]
    @ gc_layers
    @ [
        ( "gc.copied_mb",
          Num
            (f (stats.copied_bytes_nursery + stats.copied_bytes_observer
               + stats.copied_bytes_major)
            /. mib) );
        ("gc.scanned_objects", Int stats.scanned_objects);
        ("workload.ops", Int ops);
        ("workload.ns_per_op", Num (per_rec workload_self ops));
        ("serve.requests", Int nreq);
        ("serve.host_us_per_request", Num (if nreq = 0 then 0.0 else run_s *. 1e6 /. f nreq));
        ("trace.wall_s", Num wall_s);
        ("unattributed_s", Num (wall_s -. named -. gc_self_total -. cache_s -. port_s));
      ]

let modeled_of_result (r : R.result) =
  let serve =
    match r.serve with
    | None -> []
    | Some s ->
      [
        ("pause_ms_p50", Num (H.p50 s.pause_hist));
        ("pause_ms_p99", Num (H.p99 s.pause_hist));
        ("latency_ms_p50", Num (H.p50 s.latency_hist));
        ("latency_ms_p99", Num (H.p99 s.latency_hist));
      ]
  in
  Obj
    ([
       ("time_s", Num r.time_s);
       ("pcm_write_mb", Num (r.mem_pcm_write_bytes /. mib));
       ("lifetime_years", Num (R.lifetime_years r));
     ]
    @ serve)

(* ------------------------------------------------------------------ *)
(* The Figure 7 engine workload                                         *)

let fig7 = List.find (fun (e : E.experiment) -> e.E.id = "fig7") E.all

let render env = Kg_util.Table.render (fig7.E.table env)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(* A path with nothing at it; the store creates the directory. *)
let fresh_dir tmp name =
  let d = Filename.concat tmp name in
  rm_rf d;
  d

let jobs_of opts = List.sort_uniq compare (fig7.E.runs opts)

(* Engine, 2-wide pool and a store in a fresh directory. *)
let engine ?progress opts dir = X.create ~jobs:2 ~cache:true ~cache_dir:dir ?progress opts

(* Set-up alone is a few milliseconds, so it is repeated and the
   median reported. *)
let engine_setup_s opts tmp =
  let samples =
    Array.init 41 (fun i ->
        let dir = fresh_dir tmp (Printf.sprintf "setup%d" i) in
        let t0 = now () in
        let x = engine opts dir in
        let dt = now () -. t0 in
        X.shutdown x;
        dt)
  in
  Array.sort compare samples;
  samples.(20)

(* Per-job host seconds from the engine's [Log] progress lines
   ("[engine] sim/<config>/<bench>   1.23s computed"). *)
let job_times path =
  let ic = open_in path in
  let acc = Hashtbl.create 4 in
  (try
     while true do
       let l = input_line ic in
       Scanf.sscanf l "[engine] %s %fs %s" (fun label secs _ ->
           match String.split_on_char '/' label with
           | [ _; cfg; _ ] ->
             let k = String.lowercase_ascii cfg in
             Hashtbl.replace acc k (secs :: Option.value ~default:[] (Hashtbl.find_opt acc k))
           | _ -> ())
     done
   with End_of_file -> close_in ic);
  List.map
    (fun k ->
      let a = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt acc k)) in
      Array.sort compare a;
      ("engine.job." ^ k ^ "_s", Num (quantile a 0.5)))
    [ "pcm-only"; "kg-n"; "kg-w"; "wp" ]

let median_ms f xs =
  let a = Array.of_list (List.map f xs) in
  Array.sort compare a;
  quantile a 0.5 *. 1e3

let engine_rep ~traced opts tmp =
  let log = Filename.concat tmp "progress.log" in
  let oc = if traced then Some (open_out log) else None in
  let progress = Option.map (fun out -> Kg_engine.Progress.create ~out Kg_engine.Progress.Log) oc in
  let dir = fresh_dir tmp "store" in
  let t0 = now () in
  let x = engine ?progress opts dir in
  let setup_s = now () -. t0 in
  let t1 = now () in
  X.prefetch_experiments x [ "fig7" ];
  let t2 = now () in
  let text = render (X.env x) in
  let t3 = now () in
  let totals = Kg_engine.Pool.totals (X.pool x) in
  X.shutdown x;
  let wall_s = now () -. t0 in
  Option.iter close_out oc;
  let jobs = jobs_of opts in
  let results = List.map (X.fetch x) jobs in
  let total g = Num (List.fold_left (fun a r -> a +. g r) 0.0 results) in
  let base =
    [
      ("digest", Str (md5 text));
      ("wall_s", Num wall_s);
      ("setup_s", Num (if traced then setup_s else engine_setup_s opts tmp));
      ("steady_mb", total (fun r -> float_of_int r.R.alloc_bytes /. mib));
      ("runs", Int (List.length jobs));
      ("requests", Int 0);
      ( "modeled",
        Obj
          [
            ("time_s_total", total (fun r -> r.R.time_s));
            ("pcm_write_mb_total", total (fun r -> r.R.mem_pcm_write_bytes /. mib));
          ] );
      ("table", Str text);
    ]
  in
  if not traced then base
  else begin
    (* Store costs, timed on the entries this run published: one read
       and one (identical) rewrite per entry. *)
    let store = Option.get (X.store x) in
    let keyed = List.map (fun j -> Kg_engine.Store.key ~opts j) jobs in
    let time f = let t = now () in f (); now () -. t in
    let read_ms = median_ms (fun k -> time (fun () -> ignore (Kg_engine.Store.find store k))) keyed in
    let write_ms =
      median_ms
        (fun (k, r) -> time (fun () -> Kg_engine.Store.store store k r))
        (List.combine keyed results)
    in
    (* One job of the matrix (xalan, KG-W) through the traced assembly
       splits a figure job's host time across its layers. The engine
       computed the same job, so its result is the self-test. *)
    let job = List.find (fun (j : E.job) -> j.E.spec = R.kg_w && j.E.bench.D.name = "xalan") jobs in
    let job_w =
      { (xalan R.Simulate opts.E.cap_mb) with scale = opts.E.scale; heap_scale = opts.E.heap_scale }
    in
    let split = assembled ~tr:(tracer ()) job_w ~seed:opts.E.seed in
    let job_ok = List.assoc "digest" split = Str (fst (digests_of_result (X.fetch x job))) in
    let job_layers =
      List.filter_map
        (fun (k, v) ->
          if k = "wall_s" then Some ("job.wall_s", v)
          else if List.mem_assoc k base || List.mem k [ "trace.wall_s"; "unattributed_s" ]
                  || String.starts_with ~prefix:"serve." k
          then None
          else Some (k, v))
        split
    in
    let prefetch_s = t2 -. t1 and render_s = t3 -. t2 in
    ("digest", Str (if job_ok then md5 text else "job self-test failed"))
    :: List.remove_assoc "digest" base
    @ job_layers
    @ [
        ("engine.setup_s", Num setup_s);
        ("engine.prefetch_s", Num prefetch_s);
        ("engine.render_s", Num render_s);
        ("engine.pool_busy_s", Num totals.Kg_engine.Pool.busy_s);
        ("engine.pool_util", Num (totals.Kg_engine.Pool.busy_s /. (2.0 *. prefetch_s)));
        ("engine.store.read_ms", Num read_ms);
        ("engine.store.write_ms", Num write_ms);
      ]
    @ job_times log
    @ [
        ("trace.wall_s", Num wall_s);
        ("unattributed_s", Num (wall_s -. setup_s -. prefetch_s -. render_s));
      ]
  end

(* ------------------------------------------------------------------ *)

let () =
  match Array.to_list Sys.argv with
  | _ :: role :: name :: seed :: rest ->
    let seed = int_of_string seed in
    let tmp = match rest with d :: _ -> d | [] -> Filename.current_dir_name in
    let fields =
      match (workload name, role) with
      | Run w, "reference" ->
        let r = library_run w ~seed in
        let d, sd = digests_of_result r in
        [ ("digest", Str d); ("sim_digest", Str sd); ("modeled", modeled_of_result r) ]
      | Run w, "oracle" ->
        let _, sd = digests_of_result (library_run ~oracle:true w ~seed) in
        [ ("sim_digest", Str sd) ]
      | Run w, "timed" -> assembled w ~seed
      | Run w, "traced" -> assembled ~tr:(tracer ()) w ~seed
      | Fig7 o, ("timed" | "traced") -> engine_rep ~traced:(role = "traced") { o with E.seed } tmp
      | _ -> failwith ("unknown role " ^ role ^ " for " ^ name)
    in
    print_endline
      (to_json
         (Obj
            (fields
            @ [
                ("peak_rss_mb", Num (peak_rss_mb ()));
                ("ocaml", Str Sys.ocaml_version);
              ])))
  | _ ->
    prerr_endline "usage: kgbench ROLE WORKLOAD SEED [TMPDIR]";
    exit 2
