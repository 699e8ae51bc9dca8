(* hibench-testbed: one HiBench job (Fig 13) on the paper's testbed
   (7 switches, 27 servers) in flowlet-TE mode with spine ports capped
   at 0.5 Gbps and near-lossless queues. Almost pure data plane: paced
   sends, flowlet routing, path choice, frame building, the NIC and
   queue model. The path caches are warmed during set-up, so no
   controller query runs inside an op. *)

open Dumbnet_topology
open Dumbnet_packet
open Dumbnet_sim
open Dumbnet_host
open Dumbnet_workload

type t = {
  fab : Fab.t;
  hosts : Types.host_id list;
}

let scale_bytes = 4 * 1024 * 1024

let spine_cap_gbps = 0.5

(* Near-lossless queues: congestion shows as queueing, as under TCP;
   the runner has no retransmission. *)
let config = { Network.default_config with queue_bytes = 256 * 1024 * 1024 }

let pacing = { Runner.default_pacing with packet_gap_ns = 8_000; burst_bytes = 128 * 1024 }

(* The five jobs in the paper's Figure 13 order; a round runs each once. *)
let kinds = [| Hibench.aggregation; Hibench.join; Hibench.pagerank; Hibench.terasort; Hibench.wordcount |]

(* Stages run back to back: each starts after the previous stage's flows
   complete plus its compute phase. Returns the bytes delivered and
   whether every flow completed. *)
let run_job (fab : Fab.t) job =
  let delivered = ref 0 and complete = ref true in
  let start = ref (Engine.now fab.Fab.eng) in
  List.iter
    (fun stage ->
      let stage_start = !start + stage.Hibench.compute_ns in
      let flows =
        List.map (fun f -> { f with Flow.start_ns = stage_start + f.Flow.start_ns }) stage.Hibench.flows
      in
      let r =
        Trace.span "runner" "Runner.run" (fun () ->
            Runner.run ~pacing ~engine:fab.Fab.eng ~agent_of:(Fab.agent fab) ~flows ())
      in
      delivered := !delivered + r.Runner.delivered_bytes;
      if r.Runner.incomplete <> [] then complete := false;
      start := max (max r.Runner.finished_ns stage_start) (Engine.now fab.Fab.eng))
    job.Hibench.stages;
  (!delivered, !complete)

(* Set-up ends with one untimed warm-up job, so the timed jobs find the
   flowlet state, path bindings and heap already in use. *)
let setup ~seed =
  let built = Trace.span "topology" "Builder.testbed" Builder.testbed in
  let fab = Fab.bring_up ~config ~seed built in
  let net = fab.Fab.net in
  List.iter
    (fun (key, _) ->
      let a, b = Types.Link_key.ends key in
      Network.set_port_bandwidth net a ~gbps:spine_cap_gbps;
      Network.set_port_bandwidth net b ~gbps:spine_cap_gbps)
    (Graph.switch_links (Network.graph net));
  let te = Dumbnet_ext.Flowlet.create () in
  Hashtbl.iter (fun _ a -> Dumbnet_ext.Flowlet.enable te a) fab.Fab.agents;
  let hosts = built.Builder.hosts in
  Trace.span "agent" "Agent.query_path (warm-up)" (fun () ->
      List.iter
        (fun src ->
          List.iter
            (fun dst -> if dst <> src then ignore (Agent.query_path (Fab.agent fab src) ~dst))
            hosts)
        hosts;
      Engine.run fab.Fab.eng);
  ignore (run_job fab (kinds.(0) ~rng:(Bench.op_rng ~seed (-1)) ~hosts ~scale_bytes));
  { fab; hosts }

let op t m ~seed i =
  let fab = t.fab in
  let job = kinds.(i mod Array.length kinds) ~rng:(Bench.op_rng ~seed i) ~hosts:t.hosts ~scale_bytes in
  let before = Fab.snap fab in
  let sim0 = Engine.now fab.Fab.eng in
  let (delivered, complete), wall_s, words = Bench.clock i (fun () -> run_job fab job) in
  let after = Fab.snap fab in
  Fab.add_delta m before after;
  Metrics.add m "runner.flows"
    (float_of_int
       (List.fold_left (fun acc s -> acc + List.length s.Hibench.flows) 0 job.Hibench.stages));
  Metrics.add m "runner.sim_job_ms" (float_of_int (Engine.now fab.Fab.eng - sim0) /. 1e6);
  let failed =
    Bench.missed (fun () ->
        Bench.check (job.Hibench.job_name ^ ": every flow completes") complete;
        Bench.check
          (job.Hibench.job_name ^ ": delivered bytes equal the job's flow sizes")
          (delivered = Hibench.total_bytes job);
        Bench.check (job.Hibench.job_name ^ ": no queue drops")
          (after.Fab.queue_drops = before.Fab.queue_drops))
  in
  { Bench.wall_s; words; frames = Fab.frames before after; failed }

(* What a job sends: MTU-sized data frames along cached paths. *)
let frames t =
  let fab = t.fab in
  List.concat_map
    (fun src ->
      let pt = Agent.pathtable (Fab.agent fab src) in
      List.filter_map
        (fun dst ->
          match Pathtable.paths_to pt ~dst with
          | p :: _ ->
            Some
              (Frame.along_path ~src ~dst ~tags_of:(Path.tags p)
                 ~payload:(Payload.Data { flow = dst; seq = 0; size = 1450; sent_ns = 0 }))
          | [] -> None)
        t.hosts)
    t.hosts

let workload =
  {
    Bench.name = "hibench-testbed";
    round = Array.length kinds;
    setup_reps = 5;
    rss_rounds = 2;
    setup;
    op;
    fabric = (fun t -> t.fab);
    sample_frames = frames;
    known_fault = (fun _ -> false);
  }
