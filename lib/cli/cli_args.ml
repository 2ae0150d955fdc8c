open Cmdliner

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "expected a positive integer, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let domains_arg =
  let doc =
    "Simulated mutator domains. Above 1 the run executes the deterministic epoch protocol: \
     each domain generates its own op stream and a seeded merge interleaves them. All \
     domains run in this one process thread; the count scales the modeled mutator time \
     and, with $(b,--parallel-gc), the modeled collection time."
  in
  Arg.(value & opt positive_int 1 & info [ "domains" ] ~docv:"N" ~doc)

let parallel_gc_arg =
  let doc =
    "Model a parallel collector: the modeled collection time and pauses divide the \
     collection work over $(b,--domains) cores. Every counter and table is the same as \
     without it."
  in
  Arg.(value & flag & info [ "parallel-gc" ] ~doc)

let cap_mb_arg =
  let doc = "Cap the run length in MB of allocation." in
  Arg.(value & opt positive_int 256 & info [ "cap-mb" ] ~doc)
