(** One runner per table and figure of the paper's evaluation (§6).

    Every runner returns a {!Kg_util.Table.t} whose rows mirror the
    published figure so measured-vs-paper comparison is mechanical.
    Results are memoised per environment: figures share underlying
    (benchmark x system x collector) runs, so regenerating the full set
    costs one pass over the run matrix.

    An environment is parameterised by its fetch function, so the run
    matrix can be resolved by the default in-process memo table or by
    an external engine (see {!Kg_engine.Exec}) that schedules misses
    onto a domain pool and persists results on disk. Each experiment
    additionally declares the jobs it will fetch ([runs]), which is
    what lets an engine resolve a whole figure's matrix in parallel
    before the (sequential) table renderer asks for any of it. *)

type opts = {
  scale : int;  (** divide each benchmark's allocation volume *)
  heap_scale : int;  (** divide each benchmark's live target *)
  cap_mb : int;  (** upper bound on simulated allocation per run *)
  seed : int;
}

val default_opts : opts
(** scale 8, heap_scale 3, cap 256 MB — the setting used for the
    numbers in EXPERIMENTS.md. *)

val quick_opts : opts
(** Small runs for tests and benchmarking harness smoke passes. *)

type job = {
  mode : Run.mode;
  spec : Run.spec;
  bench : Kg_workload.Descriptor.t;
  trace : bool;  (** sample heap composition (Figure 13) *)
  threads : int;  (** logical mutator threads (Table 3 extension) *)
  parallel_gc : bool;  (** model a collector running on all [threads] domains *)
  cap_mb : int option;  (** per-job override of [opts.cap_mb] *)
  serve : int option;
      (** request rate (req/s): run the {!Kg_serve.Server} mutator at
          [Kg_serve.Server.default_config] with this rate instead of
          the batch mutator *)
}
(** One cell of the run matrix: everything that determines a
    {!Run.result} besides the environment options. *)

val job :
  ?trace:bool ->
  ?threads:int ->
  ?parallel_gc:bool ->
  ?cap_mb:int ->
  ?serve:int ->
  Run.mode ->
  Run.spec ->
  Kg_workload.Descriptor.t ->
  job

val job_key : opts -> job -> string
(** Canonical textual identity of a job under the given options: every
    spec field, the benchmark name, the mode, the trace/threads/cap
    extras, and every option (including the seed). Two jobs with equal
    keys produce field-for-field identical results; the engine's
    persistent store hashes this string (plus its format version) to
    name cache entries. *)

val run_job : opts -> job -> Run.result
(** Execute the job with {!Run.run}. The single place where an
    environment's options are turned into [Run.run] arguments, so the
    sequential memo, the parallel pool, and the persistent store all
    compute exactly the same thing for a given key. *)

type env

val make_env : opts -> env
(** Sequential environment: an in-process memo table over {!run_job}. *)

val make_env_with : fetch:(job -> Run.result) -> opts -> env
(** Environment with an external resolver (memoisation, scheduling and
    persistence are the resolver's business). *)

val opts : env -> opts

val fetch :
  env ->
  ?trace:bool ->
  ?threads:int ->
  ?parallel_gc:bool ->
  ?cap_mb:int ->
  ?serve:int ->
  Run.mode ->
  Run.spec ->
  Kg_workload.Descriptor.t ->
  Run.result
(** Memoised access to the underlying runs (exposed for tests and for
    the example programs). *)

type experiment = {
  id : string;
  doc : string;
  runs : opts -> job list;
      (** the fetches the table will perform, for prefetching; may
          contain duplicates and may be empty for experiments that do
          not go through {!fetch} (tab1/tab2 are static; ext-allocator
          drives spaces directly) *)
  table : env -> Kg_util.Table.t;
}

val all : experiment list
(** Every experiment: tab1-tab4, fig1, fig2, fig5-fig13, the ext-*
    extensions, and the serve-* request/response figures. *)

val run_by_name : env -> string -> Kg_util.Table.t
(** Raises [Not_found] for an unknown id. *)
