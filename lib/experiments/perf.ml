(** `bench perf`: microbenchmarks of the fabric's hot paths — path-graph
    computations/sec at the controller, simulated switch hops/sec,
    frame codec round-trips/sec, and whole failure→convergence cycles
    through a live fabric (incremental repair scoping, re-push counts,
    p50/p99 repair latency) — on a k=8 fat tree and a 64-switch
    Jellyfish. Writes BENCH_PERF.json (current numbers next to the
    committed pre-optimization baseline) so every future PR can see the
    perf trajectory. With [quick] set (bench `perf --quick`), budgets
    shrink and the run fails if any metric regresses more than
    [max_regression] from the committed baseline. *)

open Dumbnet_topology
open Dumbnet_packet
module Engine = Dumbnet_sim.Engine
module Network = Dumbnet_sim.Network
module Sharded = Dumbnet_sim.Sharded
module Topo_store = Dumbnet_control.Topo_store
module Rng = Dumbnet_util.Rng
module Pool = Dumbnet_util.Pool

let quick = ref false

(* `bench --jobs N` lands here; otherwise DUMBNET_JOBS / the machine's
   core count via [Pool.default_jobs]. Appended to the scaling curve so
   an operator can probe a specific width. *)
let jobs_override : int option ref = ref None

let requested_jobs () =
  match !jobs_override with
  | Some j -> max 1 j
  | None -> Pool.default_jobs ()

(* `bench --shards N` / DUMBNET_SHARDS: an extra width appended to the
   sharded-engine scaling curve. *)
let shards_override : int option ref = ref None

let requested_shards () =
  match !shards_override with
  | Some s -> max 1 s
  | None -> Sharded.default_shards ()

let json_path = "BENCH_PERF.json"

let md_path = "BENCH_PERF.md"

(* Pre-PR numbers: this benchmark run at the commit before the hot-path
   overhaul (PR 2), same budgets and seeds, medians of runs interleaved
   with post-PR runs on the same machine so load swings hit both sides
   equally. "before" is the un-optimized implementation: per-query BFS
   over freshly allocated adjacency lists, a tuple-keyed egress
   Hashtbl, two engine events per hop, O(n) stamp appends. *)
let before : (string * float) list =
  [
    (* The path-graph rows carry no "before": the pre-PR 2 rows (3 596
       and 6 232 path graphs/s) asked one store a 32-pair rotation, a
       method that now measures the switch-pair memo. Neither the cold
       rows (which also pay a fresh store) nor the warm rows repeat it. *)
    ("sim_hops_per_sec_fat_tree_k8", 596190.);
    (* Measured on the classic single-heap engine at the commit before
       the sharded rewrite (PR 7) — the jellyfish row had no earlier
       incarnation. *)
    ("sim_hops_per_sec_jellyfish_64", 0.);
    ("codec_roundtrips_per_sec", 348075.);
  ]

(* What CI's smoke job guards against: the committed post-optimization
   numbers. A fresh run failing to reach [baseline / max_regression] on
   any metric fails `bench perf --quick`. Batch rows are gated at
   jobs=1 only — that one is scheduling-free, so it regresses only when
   the code does; the jobs>1 rows measure the host's cores as much as
   the code and are reported, not gated. *)
let committed : (string * float) list =
  [
    (* Path-graph rows (cold vs memo-warm, see [pathgraph_method]),
       first measured on a 2-core host. *)
    ("pathgraph_cold_per_sec_fat_tree_k8", 2671.);
    ("pathgraph_cold_per_sec_jellyfish_64", 3785.);
    ("pathgraph_warm_per_sec_fat_tree_k8", 260295.);
    ("pathgraph_warm_per_sec_jellyfish_64", 324408.);
    (* Sharded-engine rewrite (PR 7): the shards=1 fast path must stay
       ahead of both the classic engine's last committed number and its
       own first measurement. The _shards1 row is the scaling curve's
       gated entry; wider rows are reported, not gated. *)
    ("sim_hops_per_sec_fat_tree_k8", 2060672.);
    ("sim_hops_per_sec_jellyfish_64", 2095789.);
    ("sim_hops_per_sec_fat_tree_k8_shards1", 2130727.);
    ("codec_roundtrips_per_sec", 471884.);
    ("pathgraph_batch_cold_per_sec_fat_tree_k8_jobs1", 11342.);
    ("pathgraph_batch_cold_per_sec_jellyfish_64_jobs1", 14723.);
    ("failure_events_per_sec_fat_tree_k8_jobs1", 6.5);
    (* Scheduler comparison rows (PR 10, drain-only timing, best of
       >= 3 repetitions). Besides the usual regression gate, the
       fat-tree wheel row carries the tentpole floor: >= 2x the
       committed shards=1 heap baseline. *)
    ("sim_hops_per_sec_fat_tree_k8_shards1_heap", 4001470.);
    ("sim_hops_per_sec_fat_tree_k8_shards1_wheel_nochain", 7414266.);
    ("sim_hops_per_sec_fat_tree_k8_shards1_wheel", 6854285.);
    ("sim_hops_per_sec_jellyfish_64_shards1_heap", 3763903.);
    ("sim_hops_per_sec_jellyfish_64_shards1_wheel_nochain", 6685703.);
    ("sim_hops_per_sec_jellyfish_64_shards1_wheel", 7494630.);
    ("sim_hops_per_sec_jellyfish_1024_shards1_heap", 2851550.);
    ("sim_hops_per_sec_jellyfish_1024_shards1_wheel_nochain", 2895283.);
    ("sim_hops_per_sec_jellyfish_1024_shards1_wheel", 2899617.);
  ]

let max_regression =
  match Sys.getenv_opt "DUMBNET_PERF_MAX_REGRESSION" with
  | Some s -> (try float_of_string s with _ -> 2.0)
  | None -> 2.0

(* Run [f] repeatedly for ~[budget_s] wall seconds (after one warmup
   call) and return calls/sec. [batch] amortizes the clock reads. *)
let ops_per_sec ?(batch = 1) ~budget_s f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  let calls = ref 0 in
  let elapsed = ref 0. in
  while !elapsed < budget_s do
    for _ = 1 to batch do
      ignore (f ())
    done;
    calls := !calls + batch;
    elapsed := Unix.gettimeofday () -. t0
  done;
  float_of_int !calls /. !elapsed

let budget_s () = if !quick then 0.2 else 1.0

(* --- path-graph computations/sec ------------------------------------- *)

(* The store memoizes Algorithm 1 per switch pair for a whole graph
   generation, so a row that asks one store the same pairs again
   measures the memo, not the algorithm. Every path-graph row therefore
   says which it measures, in its name and in BENCH_PERF.json:

   - cold: each iteration serves its pairs from a fresh [Topo_store]
     (no distance table, no memoized core), so every query pays its
     BFS runs and Algorithm 1 — the bring-up and post-failure cost;
   - warm: one store answers a 32-pair rotation over and over, so
     after the first round every query is a memo hit — the cost of
     re-serving a known switch pair (host re-queries). *)
let pathgraph_method name =
  let has prefix = String.starts_with ~prefix name in
  if has "pathgraph_cold_" || has "pathgraph_batch_cold_" then
    Some "cold: fresh Topo_store per iteration, every query runs Algorithm 1"
  else if has "pathgraph_warm_" then
    Some "warm: one Topo_store, 32-pair rotation served from the switch-pair memo"
  else None

let rotation = 32

let random_pairs built ~n:count =
  let rng = Rng.create 7 in
  let hosts = Array.of_list built.Builder.hosts in
  let n = Array.length hosts in
  Array.init count (fun _ ->
      let src = hosts.(Rng.int rng n) in
      let rec other () =
        let dst = hosts.(Rng.int rng n) in
        if dst = src then other () else dst
      in
      (src, other ()))

(* The singular query entry point ([Topo_store.serve_path_graph]), the
   one hosts' individual re-queries use. Cold: one iteration is the
   whole rotation from a fresh store, reported per path graph. *)
let pathgraph_bench ~name ~cold built =
  let pairs = random_pairs built ~n:rotation in
  let ops =
    if cold then
      float_of_int rotation
      *. ops_per_sec ~budget_s:(budget_s ()) (fun () ->
             let store = Topo_store.create built.Builder.graph in
             Array.iter
               (fun (src, dst) -> ignore (Topo_store.serve_path_graph store ~src ~dst))
               pairs)
    else begin
      let store = Topo_store.create built.Builder.graph in
      let i = ref 0 in
      ops_per_sec ~budget_s:(budget_s ()) (fun () ->
          let src, dst = pairs.(!i mod rotation) in
          incr i;
          Topo_store.serve_path_graph store ~src ~dst)
    end
  in
  (name, ops)

(* --- batched path graphs/sec: the multicore scaling curve ------------- *)

(* A fixed random sample of host pairs asked as one
   [Topo_store.serve_path_graphs] batch per iteration — the shape of
   the bootstrap push and the post-failure re-push — each from a fresh
   store, so every row is cold (see [pathgraph_method]). Reported as
   path graphs (items) per second so the rows compare directly with
   the singular metric above. *)
let batch_size = 512

(* jobs=1 takes the no-pool path (no domain ever spawns); jobs>1 reuses
   one pool across every batch of the measurement. *)
let pathgraph_batch_bench ~name built ~jobs =
  let pairs = random_pairs built ~n:batch_size in
  let measure pool =
    ops_per_sec ~budget_s:(budget_s ()) (fun () ->
        Topo_store.serve_path_graphs ?pool (Topo_store.create built.Builder.graph) pairs)
  in
  let batches =
    if jobs = 1 then measure None
    else Pool.with_pool ~jobs (fun pool -> measure (Some pool))
  in
  (name, batches *. float_of_int batch_size)

(* The curve CI and the README quote: powers of two up to the capped
   default ([Pool.default_jobs], i.e. the machine's core count bounded
   by [Pool.max_default_jobs]) plus whatever --jobs/DUMBNET_JOBS asks
   for. Widths beyond the core count only measure scheduler thrash —
   on a 1-core container the curve is just [1], which is the honest
   answer instead of an inverted 8-domain row. *)
let jobs_curve () =
  let top = max (Pool.default_jobs ()) (requested_jobs ()) in
  let rec doubling j acc = if j > top then acc else doubling (j * 2) (j :: acc) in
  List.sort_uniq compare (doubling 1 [ top; requested_jobs () ])

let batch_metric_name topo jobs =
  Printf.sprintf "pathgraph_batch_cold_per_sec_%s_jobs%d" topo jobs

let batch_curve ~topo built =
  List.map
    (fun jobs -> (batch_metric_name topo jobs, jobs, pathgraph_batch_bench ~name:topo built ~jobs))
    (jobs_curve ())
  |> List.map (fun (name, jobs, (_, ops)) -> (name, jobs, ops))

(* --- incremental failure repair: convergence -------------------------- *)

module Fabric = Dumbnet.Fabric
module Controller = Dumbnet_host.Controller

type convergence = {
  conv_events : int;  (** failure events driven through the fabric *)
  conv_cached_pairs : int;  (** controller push-ledger size *)
  conv_repushed_per_event : float;
  conv_scoping_factor : float;  (** cached pairs / re-pushed per event *)
  conv_evicted_per_event : float;  (** distance tables dropped per event *)
  conv_retained_per_event : float;  (** distance tables kept per event *)
  conv_events_per_sec : float;  (** failure→converged cycles per wall second *)
  conv_p50_ms : float;
  conv_p99_ms : float;
  conv_regen_ms_per_event : float;
      (** of each repair, wall ms recomputing affected path graphs *)
  conv_push_ms_per_event : float;
      (** of each repair, wall ms re-recording and sending the results *)
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

(* Drive whole failure→convergence cycles through a live fabric: fail a
   random cable, run the simulation to quiescence (stage-1 flood, scoped
   distance-cache repair, one patch, delta re-push to the subscribed
   pairs), then restore off the clock so the next event starts healthy.
   The wall time charged to an event is exactly the fail→quiescent
   span; the scoping factor is the fraction of the controller's pushed
   path graphs a single cable failure does NOT touch. *)
let failure_convergence_bench built =
  let fab = Fabric.create ~seed:17 built in
  let ctrl = Fabric.controller fab in
  let store = Controller.store ctrl in
  let g = Network.graph (Fabric.network fab) in
  let links = Array.of_list (List.map fst (Graph.switch_links g)) in
  let rng = Rng.create 31 in
  let min_events = if !quick then 3 else 10 in
  let budget = budget_s () in
  let latencies = ref [] in
  let events = ref 0 in
  let repushed = ref 0 and evicted = ref 0 and retained = ref 0 in
  let regen = ref 0. and push = ref 0. in
  let spent = ref 0. in
  while !events < min_events || !spent < budget do
    let key = links.(Rng.int rng (Array.length links)) in
    let le, _ = Types.Link_key.ends key in
    let r0 = Controller.repush_stats ctrl in
    let s0 = Topo_store.repair_stats store in
    let t0 = Unix.gettimeofday () in
    Fabric.fail_link fab le;
    Fabric.run fab;
    let dt = Unix.gettimeofday () -. t0 in
    let r1 = Controller.repush_stats ctrl in
    let s1 = Topo_store.repair_stats store in
    latencies := dt :: !latencies;
    spent := !spent +. dt;
    incr events;
    repushed := !repushed + r1.Controller.repushed_pairs - r0.Controller.repushed_pairs;
    evicted := !evicted + s1.Topo_store.evicted_roots - s0.Topo_store.evicted_roots;
    retained := !retained + s1.Topo_store.retained_roots - s0.Topo_store.retained_roots;
    regen := !regen +. (r1.Controller.regen_s -. r0.Controller.regen_s);
    push := !push +. (r1.Controller.push_s -. r0.Controller.push_s);
    (* Heal off the clock: past the monitor's 1 s up-notice suppression
       window, then restore and converge. *)
    Fabric.run ~for_ns:1_100_000_000 fab;
    Fabric.restore_link fab le;
    Fabric.run fab
  done;
  let n = float_of_int !events in
  let cached = (Controller.repush_stats ctrl).Controller.cached_pairs in
  let per_event = float_of_int !repushed /. n in
  let sorted = Array.of_list (List.sort compare !latencies) in
  {
    conv_events = !events;
    conv_cached_pairs = cached;
    conv_repushed_per_event = per_event;
    conv_scoping_factor = (if per_event > 0. then float_of_int cached /. per_event else 0.);
    conv_evicted_per_event = float_of_int !evicted /. n;
    conv_retained_per_event = float_of_int !retained /. n;
    conv_events_per_sec = n /. !spent;
    conv_p50_ms = percentile sorted 0.50 *. 1000.;
    conv_p99_ms = percentile sorted 0.99 *. 1000.;
    conv_regen_ms_per_event = !regen /. n *. 1000.;
    conv_push_ms_per_event = !push /. n *. 1000.;
  }

(* --- simulated hops/sec ---------------------------------------------- *)

(* Every host fires a burst of data frames along a precomputed source
   route; we charge the wall-clock cost of draining the event queue to
   the switch hops it performed. Since PR 7 the workload runs on the
   sharded engine ([Dumbnet_sim.Sharded]); shards=1 is its single-heap
   fast path and the row every earlier PR's number compares against. *)
let sim_routes built =
  let g = built.Builder.graph in
  let rng = Rng.create 11 in
  let hosts = Array.of_list built.Builder.hosts in
  let n = Array.length hosts in
  Array.to_list hosts
  |> List.filter_map (fun src ->
         let rec pick_dst tries =
           if tries = 0 then None
           else
             let dst = hosts.(Rng.int rng n) in
             if dst = src then pick_dst (tries - 1)
             else
               match Routing.host_route g ~src ~dst with
               | Some p -> Some (src, dst, Path.tags p)
               | None -> pick_dst (tries - 1)
         in
         pick_dst 5)

let sharded_run_hops ?pool ?engine ~shards built routes ~frames_per_host =
  let sim = Sharded.create ~shards ?engine ~graph:built.Builder.graph () in
  List.iter
    (fun (src, dst, tags) ->
      for _ = 1 to frames_per_host do
        Sharded.inject sim ~at_ns:0 ~src ~dst ~tags ()
      done)
    routes;
  Sharded.run ?pool sim;
  Sharded.hops sim

let sim_hops_bench ?pool ?engine ?(shards = 1) ~name built ~frames_per_host =
  let routes = sim_routes built in
  ignore (sharded_run_hops ?pool ?engine ~shards built routes ~frames_per_host);
  (* Best-of-repetition, each repetition setup-inclusive (create +
     inject + run): the shards>1 sequential-emulation rows sit within
     ~10% of shards=1, so a mean over the budget is hostage to
     transient host load and the 0.9x quick gate would flap. Taking
     the best repetition discards downward noise while keeping the
     historical setup-inclusive semantics of these rows. *)
  let best = ref 0. in
  let t0 = Unix.gettimeofday () in
  let elapsed = ref 0. in
  let runs = ref 0 in
  while !runs < 3 || !elapsed < budget_s () do
    let r0 = Unix.gettimeofday () in
    let hops = sharded_run_hops ?pool ?engine ~shards built routes ~frames_per_host in
    let r1 = Unix.gettimeofday () in
    let ops = float_of_int hops /. (r1 -. r0) in
    if ops > !best then best := ops;
    incr runs;
    elapsed := r1 -. t0
  done;
  (name, !best)

(* --- per-shard scheduler comparison: heap vs wheel vs wheel+chaining -- *)

(* The engine rows pin the scheduler explicitly (ignoring
   DUMBNET_ENGINE) so the comparison is always the same three points:
   the binary heap, the hierarchical timing wheel alone, and the wheel
   with run-to-next-conflict hop chaining. All at shards=1 — the
   scheduler swap and the sharding curve are orthogonal axes, and
   shards=1 is the scheduling-free row the gate can trust. Digests are
   byte-identical across all three (property-tested), so rows differ
   only in wall clock. *)
let engines =
  [
    ("heap", Sharded.Heap_sched);
    ("wheel_nochain", Sharded.Wheel_sched);
    ("wheel", Sharded.Wheel_chain);
  ]

let engine_metric_name topo eng = Printf.sprintf "sim_hops_per_sec_%s_shards1_%s" topo eng

(* Unlike the legacy sim rows (which keep their original
   setup-inclusive methodology so the trajectory stays comparable),
   the engine rows time the drain alone: graph partitioning, pool
   sizing, route precompute and injection are identical across
   schedulers and would otherwise dilute exactly the difference being
   measured. Each repetition is a fresh simulation; the row is the
   best repetition, which is what makes the committed 2x floor safe to
   gate — a transient stall slows one repetition, not the machine's
   actual per-hop cost. *)
let sim_drain_bench ?engine built routes ~frames_per_host =
  let best = ref 0. in
  let t0 = Unix.gettimeofday () in
  let elapsed = ref 0. in
  let runs = ref 0 in
  while !runs < 3 || !elapsed < budget_s () do
    let sim = Sharded.create ~shards:1 ?engine ~graph:built.Builder.graph () in
    List.iter
      (fun (src, dst, tags) ->
        for _ = 1 to frames_per_host do
          Sharded.inject sim ~at_ns:0 ~src ~dst ~tags ()
        done)
      routes;
    let r0 = Unix.gettimeofday () in
    Sharded.run sim;
    let r1 = Unix.gettimeofday () in
    let ops = float_of_int (Sharded.hops sim) /. (r1 -. r0) in
    if ops > !best then best := ops;
    incr runs;
    elapsed := r1 -. t0
  done;
  !best

let engine_scaling_curve topos =
  List.concat_map
    (fun (topo, built, frames_per_host) ->
      let routes = sim_routes built in
      List.map
        (fun (ename, engine) ->
          let name = engine_metric_name topo ename in
          let ops = sim_drain_bench ~engine built routes ~frames_per_host in
          (name, topo, ename, ops))
        engines)
    topos

(* The sharded-engine scaling curve: shards 1/2/4/8 plus whatever
   --shards/DUMBNET_SHARDS asks for, each run over min(shards, jobs)
   domains. Every row reproduces the shards=1 stream byte-identically
   (the determinism contract), so rows differ only in wall-clock. *)
let shards_curve () = List.sort_uniq compare [ 1; 2; 4; 8; requested_shards () ]

let sim_metric_name topo shards = Printf.sprintf "sim_hops_per_sec_%s_shards%d" topo shards

(* How a row actually ran. On a box whose recommended domain count is 1
   (CI smoke containers), a shards>1 row still partitions and windows
   the event stream but drains every shard on the one core — that is a
   correctness exercise, not a speedup measurement, and the row says
   so instead of reading as "sharding got slower". *)
let sim_row_mode ~shards ~jobs =
  if shards = 1 then "single"
  else if jobs > 1 then "parallel"
  else "sequential-emulation"

let sim_scaling_row ~topo built shards ops =
  let name = sim_metric_name topo shards in
  let jobs = min shards (requested_jobs ()) in
  let cut = List.length (Partition.compute built.Builder.graph ~shards).Partition.cut in
  (name, shards, ops, cut, sim_row_mode ~shards ~jobs)

let sim_scaling_curve ~topo built ~frames_per_host =
  let widths = Array.of_list (shards_curve ()) in
  let n = Array.length widths in
  if Array.for_all (fun shards -> min shards (requested_jobs ()) = 1) widths then begin
    (* Sequential rows (the gated ones): interleave the widths
       round-robin, one setup-inclusive timed run each per round, best
       round kept per width. Measuring a whole row's budget in one
       block lets a transient load swing hit only that row's ratio —
       observed flipping the shards=8/shards=1 ratio between 0.85x and
       1.1x run to run — whereas interleaved rounds see the same
       conditions across widths. *)
    let routes = sim_routes built in
    let best = Array.make n 0. in
    ignore (sharded_run_hops ~shards:widths.(0) built routes ~frames_per_host);
    let t0 = Unix.gettimeofday () in
    let rounds = ref 0 in
    let elapsed = ref 0. in
    let total_budget = budget_s () *. float_of_int n in
    while !rounds < 3 || !elapsed < total_budget do
      Array.iteri
        (fun i shards ->
          let r0 = Unix.gettimeofday () in
          let hops = sharded_run_hops ~shards built routes ~frames_per_host in
          let r1 = Unix.gettimeofday () in
          let ops = float_of_int hops /. (r1 -. r0) in
          if ops > best.(i) then best.(i) <- ops)
        widths;
      incr rounds;
      elapsed := Unix.gettimeofday () -. t0
    done;
    Array.to_list
      (Array.mapi
         (fun i shards -> sim_scaling_row ~topo built shards best.(i))
         widths)
  end
  else
    (* Parallel rows need a domain pool per width; they measure the
       host's cores and stay ungated, so per-row budgets are fine. *)
    Array.to_list
      (Array.map
         (fun shards ->
           let jobs = min shards (requested_jobs ()) in
           let _, ops =
             if jobs > 1 then
               Pool.with_pool ~jobs (fun pool ->
                   sim_hops_bench ~pool ~shards ~name:(sim_metric_name topo shards) built
                     ~frames_per_host)
             else sim_hops_bench ~shards ~name:(sim_metric_name topo shards) built ~frames_per_host
           in
           sim_scaling_row ~topo built shards ops)
         widths)

(* Gc.minor_words across one full drain of the shards=1 fast path,
   divided by the hops it performed: the zero-allocation contract of
   the frame pool + typed-event heap. Injection happens before the
   first clock read, so only the steady-state loop is on the meter. *)
let minor_words_bench ?engine built ~frames_per_host =
  let routes = sim_routes built in
  let sim = Sharded.create ~shards:1 ?engine ~graph:built.Builder.graph () in
  List.iter
    (fun (src, dst, tags) ->
      for _ = 1 to frames_per_host do
        Sharded.inject sim ~at_ns:0 ~src ~dst ~tags ()
      done)
    routes;
  let w0 = Gc.minor_words () in
  Sharded.run sim;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int (max 1 (Sharded.hops sim))

(* --- codec round-trips/sec ------------------------------------------- *)

let codec_bench ~name =
  let stamp i =
    { Int_stamp.switch = i; port = i + 1; queue_depth = 1000 * i; timestamp_ns = 5000 + i }
  in
  let frame =
    Frame.along_path ~src:3 ~dst:9 ~tags_of:[ 2; 5; 1; 7; 3; 4 ]
      ~payload:(Payload.Data { flow = 5; seq = 42; size = 1400; sent_ns = 1234 })
  in
  let frame = Frame.with_int frame in
  let frame = List.fold_left (fun f i -> Frame.add_stamp (stamp i) f) frame [ 0; 1; 2; 3 ] in
  let ops =
    ops_per_sec ~batch:16 ~budget_s:(budget_s ()) (fun () -> Frame.of_bytes (Frame.to_bytes frame))
  in
  (name, ops)

(* --- harness ---------------------------------------------------------- *)

let assoc name l = try List.assoc name l with Not_found -> 0.

(* ops at jobs=1 of a curve, the denominator of every scaling ratio. *)
let jobs1_ops rows =
  match List.find_opt (fun (_, jobs, _) -> jobs = 1) rows with
  | Some (_, _, ops) -> ops
  | None -> 0.

let method_field name =
  match pathgraph_method name with
  | Some m -> Printf.sprintf ", \"method\": \"%s\"" m
  | None -> ""

let write_json results scaling sim_scaling engine_scaling ~minor_words ~minor_words_wheel conv =
  let oc = open_out json_path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"meta\": {\n";
  p "    \"quick\": %b,\n" !quick;
  p "    \"max_regression\": %.2f,\n" max_regression;
  p "    \"jobs_curve\": [%s],\n"
    (String.concat ", " (List.map string_of_int (jobs_curve ())));
  p "    \"shards_curve\": [%s],\n"
    (String.concat ", " (List.map string_of_int (shards_curve ())));
  p "    \"recommended_domain_count\": %d,\n" (Domain.recommended_domain_count ());
  p "    \"topologies\": [\"fat_tree_k8\", \"jellyfish_64\", \"jellyfish_1024\"]\n";
  p "  },\n";
  p "  \"metrics\": [\n";
  let rec rows = function
    | [] -> ()
    | (name, ops) :: rest ->
      (* A metric with no pre-optimization incarnation (the "before"
         table carries 0) gets no before/speedup fields at all — a
         literal 0.0 baseline would read as "infinitely slower". *)
      let b = assoc name before in
      p "    {\"name\": \"%s\"%s, " name (method_field name);
      if b > 0. then
        p "\"before_ops_per_sec\": %.1f, \"ops_per_sec\": %.1f, \"speedup_vs_before\": %.2f}%s\n"
          b ops (ops /. b)
          (if rest = [] then "" else ",")
      else p "\"ops_per_sec\": %.1f}%s\n" ops (if rest = [] then "" else ",");
      rows rest
  in
  rows results;
  p "  ],\n";
  p "  \"batch_scaling\": [\n";
  let all_rows =
    List.concat_map
      (fun (_, curve) ->
        let base = jobs1_ops curve in
        List.map (fun (name, jobs, ops) -> (name, jobs, ops, base)) curve)
      scaling
  in
  let rec srows = function
    | [] -> ()
    | (name, jobs, ops, base) :: rest ->
      (* Batch rows never sequentially emulate: a jobs>1 pool really
         spawns that many domains, so the mode split is binary. *)
      p "    {\"name\": \"%s\"%s, \"jobs\": %d, \"mode\": \"%s\", \"ops_per_sec\": %.1f, \
         \"speedup_vs_jobs1\": %.2f}%s\n"
        name (method_field name) jobs
        (if jobs = 1 then "single" else "parallel")
        ops
        (if base > 0. then ops /. base else 0.)
        (if rest = [] then "" else ",");
      srows rest
  in
  srows all_rows;
  p "  ],\n";
  p "  \"sim_scaling\": [\n";
  let base_shards1 =
    match List.find_opt (fun (_, shards, _, _, _) -> shards = 1) sim_scaling with
    | Some (_, _, ops, _, _) -> ops
    | None -> 0.
  in
  let rec simrows = function
    | [] -> ()
    | (name, shards, ops, cut, mode) :: rest ->
      p "    {\"name\": \"%s\", \"shards\": %d, \"mode\": \"%s\", \"ops_per_sec\": %.1f, \
         \"speedup_vs_shards1\": %.2f, \"cut_cables\": %d}%s\n"
        name shards mode ops
        (if base_shards1 > 0. then ops /. base_shards1 else 0.)
        cut
        (if rest = [] then "" else ",");
      simrows rest
  in
  simrows sim_scaling;
  p "  ],\n";
  p "  \"engine_scaling\": [\n";
  let heap_ops topo =
    match
      List.find_opt (fun (_, t, ename, _) -> t = topo && ename = "heap") engine_scaling
    with
    | Some (_, _, _, ops) -> ops
    | None -> 0.
  in
  let rec erows = function
    | [] -> ()
    | (name, topo, ename, ops) :: rest ->
      let base = heap_ops topo in
      p "    {\"name\": \"%s\", \"topology\": \"%s\", \"engine\": \"%s\", \
         \"ops_per_sec\": %.1f, \"speedup_vs_heap\": %.2f}%s\n"
        name topo ename ops
        (if base > 0. then ops /. base else 0.)
        (if rest = [] then "" else ",");
      erows rest
  in
  erows engine_scaling;
  p "  ],\n";
  p "  \"minor_words_per_hop\": %.4f,\n" minor_words;
  p "  \"minor_words_per_hop_wheel\": %.4f,\n" minor_words_wheel;
  p "  \"failure_convergence\": {\n";
  p "    \"topology\": \"fat_tree_k8\",\n";
  p "    \"jobs\": 1,\n";
  p "    \"events\": %d,\n" conv.conv_events;
  p "    \"cached_pairs\": %d,\n" conv.conv_cached_pairs;
  p "    \"repushed_pairs_per_event\": %.2f,\n" conv.conv_repushed_per_event;
  p "    \"scoping_factor\": %.2f,\n" conv.conv_scoping_factor;
  p "    \"dist_tables_evicted_per_event\": %.2f,\n" conv.conv_evicted_per_event;
  p "    \"dist_tables_retained_per_event\": %.2f,\n" conv.conv_retained_per_event;
  p "    \"events_per_sec\": %.1f,\n" conv.conv_events_per_sec;
  p "    \"repair_latency_p50_ms\": %.3f,\n" conv.conv_p50_ms;
  p "    \"repair_latency_p99_ms\": %.3f,\n" conv.conv_p99_ms;
  p "    \"repair_regen_ms_per_event\": %.3f,\n" conv.conv_regen_ms_per_event;
  p "    \"repair_push_ms_per_event\": %.3f\n" conv.conv_push_ms_per_event;
  p "  }\n";
  p "}\n";
  close_out oc

(* --- BENCH_PERF.md: the README's perf tables, generated ---------------- *)

(* README.md quotes these tables between "perf-table:begin/end" markers;
   `make perf-table` re-runs the bench and splices this file in, so the
   README can never drift from BENCH_PERF.json again. *)

let thousands f =
  let s = Printf.sprintf "%.0f" f in
  let n = String.length s in
  let buf = Buffer.create (n + 4) in
  String.iteri
    (fun i c ->
      if i > 0 && (n - i) mod 3 = 0 then Buffer.add_char buf ' ';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let display_label = function
  | "pathgraph_cold_per_sec_fat_tree_k8" -> "path graphs/sec, cold Algorithm 1, fat tree k=8"
  | "pathgraph_cold_per_sec_jellyfish_64" -> "path graphs/sec, cold Algorithm 1, Jellyfish 64"
  | "pathgraph_warm_per_sec_fat_tree_k8" -> "path graphs/sec, memo-warm service, fat tree k=8"
  | "pathgraph_warm_per_sec_jellyfish_64" -> "path graphs/sec, memo-warm service, Jellyfish 64"
  | "sim_hops_per_sec_fat_tree_k8" -> "simulated switch hops/sec, fat tree k=8"
  | "sim_hops_per_sec_jellyfish_64" -> "simulated switch hops/sec, Jellyfish 64"
  | "codec_roundtrips_per_sec" -> "frame codec round-trips/sec"
  | s -> s

let engine_display = function
  | "heap" -> "binary heap"
  | "wheel_nochain" -> "timing wheel"
  | "wheel" -> "timing wheel + chaining"
  | s -> s

let topo_display = function
  | "fat_tree_k8" -> "fat tree k=8"
  | "jellyfish_64" -> "Jellyfish 64"
  | "jellyfish_1024" -> "Jellyfish 1024"
  | s -> s

let write_markdown results sim_scaling engine_scaling ~minor_words ~minor_words_wheel =
  let oc = open_out md_path in
  let p fmt = Printf.fprintf oc fmt in
  p "| metric | before (ops/s) | after (ops/s) | speedup |\n";
  p "|---|---:|---:|---:|\n";
  List.iter
    (fun (name, ops) ->
      let b = assoc name before in
      p "| %s | %s | %s | %s |\n" (display_label name)
        (if b > 0. then thousands b else "—")
        (thousands ops)
        (if b > 0. then Printf.sprintf "%.1fx" (ops /. b) else "—"))
    results;
  p "\n";
  p "Sharded engine scaling (fat tree k=8, conservative-lookahead windows,\n";
  p "%.2f minor words/hop at shards=1 — gate ≤ 1.0):\n" minor_words;
  p "\n";
  p "| shards | mode | cut cables | sim hops/s | vs shards=1 |\n";
  p "|---:|---|---:|---:|---:|\n";
  let base =
    match List.find_opt (fun (_, shards, _, _, _) -> shards = 1) sim_scaling with
    | Some (_, _, ops, _, _) -> ops
    | None -> 0.
  in
  List.iter
    (fun (_, shards, ops, cut, mode) ->
      p "| %d | %s | %d | %s | %s |\n" shards mode cut (thousands ops)
        (if base > 0. then Printf.sprintf "%.2fx" (ops /. base) else "—"))
    sim_scaling;
  p "\n";
  p "Per-shard scheduler (shards=1, identical delivery digests;\n";
  p "%.2f minor words/hop under the wheel — gate ≤ 1.0):\n" minor_words_wheel;
  p "\n";
  p "| topology | scheduler | sim hops/s | vs heap |\n";
  p "|---|---|---:|---:|\n";
  let heap_ops topo =
    match
      List.find_opt (fun (_, t, ename, _) -> t = topo && ename = "heap") engine_scaling
    with
    | Some (_, _, _, ops) -> ops
    | None -> 0.
  in
  List.iter
    (fun (_, topo, ename, ops) ->
      let b = heap_ops topo in
      p "| %s | %s | %s | %s |\n" (topo_display topo) (engine_display ename)
        (thousands ops)
        (if b > 0. then Printf.sprintf "%.2fx" (ops /. b) else "—"))
    engine_scaling;
  close_out oc

let run () =
  Report.section ~id:"Perf" ~title:"hot-path microbenchmarks (BENCH_PERF.json)";
  let ft8 = Builder.fat_tree ~k:8 () in
  let jelly = Builder.jellyfish ~switches:64 () in
  let results =
    [
      pathgraph_bench ~name:"pathgraph_cold_per_sec_fat_tree_k8" ~cold:true ft8;
      pathgraph_bench ~name:"pathgraph_cold_per_sec_jellyfish_64" ~cold:true jelly;
      pathgraph_bench ~name:"pathgraph_warm_per_sec_fat_tree_k8" ~cold:false ft8;
      pathgraph_bench ~name:"pathgraph_warm_per_sec_jellyfish_64" ~cold:false jelly;
      sim_hops_bench ~name:"sim_hops_per_sec_fat_tree_k8" ft8 ~frames_per_host:20;
      sim_hops_bench ~name:"sim_hops_per_sec_jellyfish_64" jelly ~frames_per_host:20;
      codec_bench ~name:"codec_roundtrips_per_sec";
    ]
  in
  let sim_scaling = sim_scaling_curve ~topo:"fat_tree_k8" ft8 ~frames_per_host:20 in
  let engine_scaling =
    engine_scaling_curve
      [
        ("fat_tree_k8", ft8, 20);
        ("jellyfish_64", jelly, 20);
        ("jellyfish_1024", Builder.jellyfish ~switches:1024 (), 8);
      ]
  in
  let minor_words = minor_words_bench ~engine:Sharded.Heap_sched ft8 ~frames_per_host:20 in
  let minor_words_wheel =
    minor_words_bench ~engine:Sharded.Wheel_chain ft8 ~frames_per_host:20
  in
  let scaling =
    [
      ("fat_tree_k8", batch_curve ~topo:"fat_tree_k8" ft8);
      ("jellyfish_64", batch_curve ~topo:"jellyfish_64" jelly);
    ]
  in
  Report.table
    ~headers:[ "metric"; "before (ops/s)"; "now (ops/s)"; "speedup" ]
    (List.map
       (fun (name, ops) ->
         let b = assoc name before in
         [
           name;
           Printf.sprintf "%.0f" b;
           Printf.sprintf "%.0f" ops;
           (if b > 0. then Printf.sprintf "%.2fx" (ops /. b) else "-");
         ])
       results);
  Report.note
    (Printf.sprintf
       "sharded engine, fat_tree_k8 (conservative-lookahead windows over min(shards, \
        jobs) domains; %.2f minor words/hop at shards=1):"
       minor_words);
  Report.table
    ~headers:[ "shards"; "mode"; "cut cables"; "sim hops/s"; "vs shards=1" ]
    (let base =
       match List.find_opt (fun (_, shards, _, _, _) -> shards = 1) sim_scaling with
       | Some (_, _, ops, _, _) -> ops
       | None -> 0.
     in
     List.map
       (fun (_, shards, ops, cut, mode) ->
         [
           string_of_int shards;
           mode;
           string_of_int cut;
           Printf.sprintf "%.0f" ops;
           (if base > 0. then Printf.sprintf "%.2fx" (ops /. base) else "-");
         ])
       sim_scaling);
  Report.note
    (Printf.sprintf
       "per-shard scheduler comparison (shards=1, identical delivery digests; %.2f \
        minor words/hop under the wheel):"
       minor_words_wheel);
  Report.table
    ~headers:[ "topology"; "scheduler"; "sim hops/s"; "vs heap" ]
    (let heap_ops topo =
       match
         List.find_opt (fun (_, t, ename, _) -> t = topo && ename = "heap") engine_scaling
       with
       | Some (_, _, _, ops) -> ops
       | None -> 0.
     in
     List.map
       (fun (_, topo, ename, ops) ->
         let b = heap_ops topo in
         [
           topo;
           engine_display ename;
           Printf.sprintf "%.0f" ops;
           (if b > 0. then Printf.sprintf "%.2fx" (ops /. b) else "-");
         ])
       engine_scaling);
  Report.note
    (Printf.sprintf
       "batched path-graph service, %d-query batches (Topo_store.serve_path_graphs; \
        this machine recommends %d domains):"
       batch_size
       (Domain.recommended_domain_count ()));
  Report.table
    ~headers:[ "topology"; "jobs"; "path graphs/s"; "vs jobs=1" ]
    (List.concat_map
       (fun (topo, curve) ->
         let base = jobs1_ops curve in
         List.map
           (fun (_, jobs, ops) ->
             [
               topo;
               string_of_int jobs;
               Printf.sprintf "%.0f" ops;
               (if base > 0. then Printf.sprintf "%.2fx" (ops /. base) else "-");
             ])
           curve)
       scaling);
  let conv = failure_convergence_bench ft8 in
  Report.note
    (Printf.sprintf
       "incremental failure repair, fat_tree_k8 fabric (jobs=1, %d events): a single cable \
        failure re-pushes %.1f of %d cached path graphs (scoping factor %.1fx), evicting \
        %.1f and retaining %.1f memoized distance tables"
       conv.conv_events conv.conv_repushed_per_event conv.conv_cached_pairs
       conv.conv_scoping_factor conv.conv_evicted_per_event conv.conv_retained_per_event);
  Report.table
    ~headers:[ "metric"; "value" ]
    [
      [ "failure events/s (fail -> converged)"; Printf.sprintf "%.1f" conv.conv_events_per_sec ];
      [ "repair latency p50"; Printf.sprintf "%.2f ms" conv.conv_p50_ms ];
      [ "repair latency p99"; Printf.sprintf "%.2f ms" conv.conv_p99_ms ];
      [ "re-pushed pairs/event"; Printf.sprintf "%.1f" conv.conv_repushed_per_event ];
      [ "scoping factor"; Printf.sprintf "%.1fx" conv.conv_scoping_factor ];
      [ "regen phase/event"; Printf.sprintf "%.2f ms" conv.conv_regen_ms_per_event ];
      [ "push phase/event"; Printf.sprintf "%.2f ms" conv.conv_push_ms_per_event ];
    ];
  write_json results scaling sim_scaling engine_scaling ~minor_words ~minor_words_wheel conv;
  write_markdown results sim_scaling engine_scaling ~minor_words ~minor_words_wheel;
  Report.note (Printf.sprintf "wrote %s and %s" json_path md_path);
  if !quick then begin
    (* Gate the sequential metrics plus the scheduling-free jobs=1 /
       shards=1 rows; wider rows depend on the host's core count. *)
    let gated =
      results
      @ List.filter_map
          (fun (_, curve) ->
            List.find_opt (fun (_, jobs, _) -> jobs = 1) curve
            |> Option.map (fun (name, _, ops) -> (name, ops)))
          scaling
      @ List.filter_map
          (fun (name, shards, ops, _, _) -> if shards = 1 then Some (name, ops) else None)
          sim_scaling
      @ List.map (fun (name, _, _, ops) -> (name, ops)) engine_scaling
      @ [ ("failure_events_per_sec_fat_tree_k8_jobs1", conv.conv_events_per_sec) ]
    in
    (* The frame pool's whole point: the steady-state hop loop must not
       allocate. One word per hop of slack covers heap doublings. *)
    if minor_words > 1.0 then begin
      Printf.printf
        "PERF REGRESSION: %.2f minor words per hop in the shards=1 forwarding loop \
         (budget 1.0) — the zero-allocation contract broke\n"
        minor_words;
      exit 1
    end;
    if minor_words_wheel > 1.0 then begin
      Printf.printf
        "PERF REGRESSION: %.2f minor words per hop under the wheel engine (budget 1.0) \
         — the zero-allocation contract broke\n"
        minor_words_wheel;
      exit 1
    end;
    (* The tentpole's floor: the wheel+chaining engine must clear 2x
       the committed heap shards=1 baseline on the gated topology, or
       the scheduler swap has stopped paying for its complexity. The
       floor carries the same host-noise knob as every other committed
       gate, normalized so the default (max_regression = 2) keeps the
       floor exact: CI's loosened DUMBNET_PERF_MAX_REGRESSION scales
       it down the way it scales every absolute baseline, instead of
       failing slow shared runners on an uncalibrated constant. *)
    let wheel_floor =
      2.0
      *. assoc "sim_hops_per_sec_fat_tree_k8_shards1" committed
      *. 2.0 /. max_regression
    in
    (match
       List.find_opt
         (fun (name, _, _, _) -> name = "sim_hops_per_sec_fat_tree_k8_shards1_wheel")
         engine_scaling
     with
    | Some (_, _, _, ops) when ops < wheel_floor ->
      Printf.printf
        "PERF REGRESSION: wheel+chaining engine at %.0f hops/s on fat_tree_k8, below \
         the 2x-of-heap floor %.0f\n"
        ops wheel_floor;
      exit 1
    | _ -> ());
    (* A shards>1 row drained sequentially still pays partitioning and
       windowing but skips the mailbox serialization (frames transfer
       pool-to-pool); anything below 0.9x of shards=1 means that
       overhead crept back. Parallel rows measure the host's cores, not
       the code, and stay ungated. *)
    List.iter
      (fun (name, _, ops, _, mode) ->
        let base =
          match List.find_opt (fun (_, shards, _, _, _) -> shards = 1) sim_scaling with
          | Some (_, _, b, _, _) -> b
          | None -> 0.
        in
        if mode = "sequential-emulation" && base > 0. && ops < 0.9 *. base then begin
          Printf.printf
            "PERF REGRESSION: %s (sequential emulation) at %.0f hops/s, %.2fx of the \
             shards=1 row (floor 0.90x)\n"
            name ops (ops /. base);
          exit 1
        end)
      sim_scaling;
    (* The point of incremental repair: a single-cable failure must
       avoid recomputing the overwhelming share of pushed path graphs.
       Anything under 5x means the subscription index has degraded
       into wholesale re-push. *)
    if conv.conv_scoping_factor < 5. then begin
      Printf.printf
        "PERF REGRESSION: failure-repair scoping factor %.2f < 5.0 (re-pushing %.1f of %d \
         cached pairs per event)\n"
        conv.conv_scoping_factor conv.conv_repushed_per_event conv.conv_cached_pairs;
      exit 1
    end;
    let failed =
      List.filter
        (fun (name, ops) ->
          let base = assoc name committed in
          base > 0. && ops < base /. max_regression)
        gated
    in
    List.iter
      (fun (name, ops) ->
        Printf.printf "PERF REGRESSION: %s at %.0f ops/s, committed baseline %.0f (>%.1fx slower)\n"
          name ops (assoc name committed) max_regression)
      failed;
    if failed <> [] then exit 1
  end
