(* Entry point: run one named workload in this process and print its
   result line, or run every workload briefly with --smoke. *)

let workloads =
  [
    Bench.W Bringup.workload;
    Bench.W Failover.workload;
    Bench.W Hibench_job.workload;
    Bench.W Localize.workload;
  ]

let out_dir = "perfbench/out"

(* One set-up and one round of every workload, outputs checked: the
   benchmark's own test. Exits non-zero if any check fails or an op
   fails outside the known fault. *)
let smoke () =
  let results =
    List.map
      (fun (Bench.W w) ->
        Bench.wrong := 0;
        let s = w.Bench.setup ~seed:1 in
        let t = Bench.run_ops w s (Metrics.create ()) ~seed:1 ~ops:w.Bench.round ~budget_s:0. () in
        let good = !Bench.wrong = 0 && t.Bench.unexpected = 0 in
        Printf.printf "%-16s ops=%d failed=%d (known fault %d) %s\n%!" w.Bench.name t.Bench.n
          t.Bench.failed
          (t.Bench.failed - t.Bench.unexpected)
          (if good then "ok" else "FAIL");
        good)
      workloads
  in
  exit (if List.for_all Fun.id results then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the workload's inputs are drawn from");
      ("--seconds", Arg.Set_float seconds, "S how long to run ops (whole rounds, at least one)");
      ("--trace", Arg.Set_int trace, "0|1 0: end-to-end metrics; 1: traced run, per-layer metrics");
      ("--smoke", Arg.Set smoke_only, " one round of every workload, outputs checked");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 | --smoke";
  if !smoke_only then smoke ()
  else
    match List.find_opt (fun (Bench.W w) -> w.Bench.name = !workload) workloads with
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun (Bench.W w) -> w.Bench.name) workloads));
      exit 2
    | Some (Bench.W w) -> (
      match !trace with
      | 0 -> Bench.run_untraced w ~seed:!seed ~seconds:!seconds
      | 1 ->
        (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Bench.run_traced w ~seed:!seed ~seconds:!seconds ~out_dir
      | n ->
        Printf.eprintf "perfbench: --trace must be 0 or 1, not %d\n" n;
        exit 2)
