(** Command-line arguments shared by the [run], [check] and [serve]
    subcommands. *)

val positive_int : int Cmdliner.Arg.conv
(** An integer of at least 1; anything else is a usage error. *)

val domains_arg : int Cmdliner.Term.t
(** [--domains N] (default 1): the simulated mutator domain count. *)

val parallel_gc_arg : bool Cmdliner.Term.t
(** [--parallel-gc]: model a collector that runs on every domain. *)
