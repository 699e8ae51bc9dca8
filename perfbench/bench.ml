(* The harness shared by every workload: repeated set-up, the timed op
   loop in whole rounds, the traced run with its overhead measurement,
   the per-layer replays, and the result line. *)

open Dumbnet_topology
open Dumbnet_packet
open Dumbnet_sim
open Dumbnet_host
module Topo_store = Dumbnet_control.Topo_store

type op_stat = {
  wall_s : float;  (** on-clock wall time of the op *)
  words : float;  (** minor-heap words allocated on the clock *)
  frames : int;  (** host transmissions plus switch hops *)
  failed : bool;  (** the op's output failed its check *)
}

type 'a workload = {
  name : string;
  round : int;  (** ops per round; every run attempts whole rounds *)
  setup_reps : int;  (** set-ups per run; [setup_s] is their median *)
  rss_rounds : int;
      (** every run attempts at least this many rounds, and [peak_rss_mb]
          is read after them *)
  setup : seed:int -> 'a;
  op : 'a -> Metrics.t -> seed:int -> int -> op_stat;
      (** op [i]'s inputs depend only on the seed and [i] *)
  fabric : 'a -> Fab.t;  (** the fabric the replays read *)
  sample_frames : 'a -> Frame.t list;  (** the kinds of frame the workload sends *)
  known_fault : int -> bool;
      (** ops whose failure is the known fault, not a regression *)
}

type packed = W : 'a workload -> packed

(* Output checks: any miss makes the whole run incorrect. *)
let wrong = ref 0

let check what ok =
  if not ok then begin
    incr wrong;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* Runs an op's checks; [true] when any of them missed. *)
let missed checks =
  let before = !wrong in
  checks ();
  !wrong > before

let now = Unix.gettimeofday

(* An op's on-clock part: wall time and minor words around [f], inside
   the op's span when tracing. *)
let clock i f =
  Trace.op i (fun () ->
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let r = f () in
      let t1 = now () in
      (r, t1 -. t0, Gc.minor_words () -. w0))

(* A span that also hands back its duration, for replays. *)
let timed layer name f =
  let t0 = now () in
  let r = Trace.span layer name f in
  (r, now () -. t0)

(* Deterministic per-op generator: the op's inputs come from (seed, i). *)
let op_rng ~seed i = Dumbnet_util.Rng.create ((seed * 1_000_003) + i + 1)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l = percentile (Array.of_list (List.sort compare l)) 0.5

(* Peak resident set of this process, in MiB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> Some kb)
        else scan ()
    in
    let kb = scan () in
    close_in ic;
    (match kb with
    | Some kb -> float_of_int kb /. 1024.
    | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.)

(* --- set-up and the op loop -------------------------------------------- *)

(* Set the workload up [w.setup_reps] times from scratch and keep the
   last; the median time is [setup_s]. *)
let set_up w ~seed =
  let times = ref [] in
  let last = ref None in
  for _ = 1 to w.setup_reps do
    last := None;
    Gc.full_major ();
    let t0 = now () in
    let s = w.setup ~seed in
    times := (now () -. t0) :: !times;
    last := Some s
  done;
  match !last with
  | Some s -> (s, median !times)
  | None -> invalid_arg "Bench.set_up"

(* What a run keeps of its ops: each op's wall time (unboxed, so the
   record costs this process 8 bytes an op) and running sums. *)
type tally = {
  mutable walls : float array;  (** first [n] slots used *)
  mutable n : int;
  mutable words : float;
  mutable frames : int;
  mutable failed : int;
  mutable unexpected : int;  (** failed ops outside the known fault *)
  mutable rss_mb : float;  (** peak RSS after [rss_rounds] rounds *)
}

let add_op w t i st =
  if t.n = Array.length t.walls then begin
    let a = Array.make ((2 * t.n) + 64) 0. in
    Array.blit t.walls 0 a 0 t.n;
    t.walls <- a
  end;
  t.walls.(t.n) <- st.wall_s;
  t.n <- t.n + 1;
  t.words <- t.words +. st.words;
  t.frames <- t.frames + st.frames;
  if st.failed then begin
    t.failed <- t.failed + 1;
    if not (w.known_fault i) then t.unexpected <- t.unexpected + 1
  end

(* Ops in whole rounds until [budget_s] of wall time has passed (at
   least [w.rss_rounds] rounds), or exactly [ops] ops when given. The
   peak RSS is read at a fixed op count, so it does not grow with how
   many ops a run got through. *)
let run_ops w s m ~seed ?ops ~budget_s () =
  let t =
    { walls = [||]; n = 0; words = 0.; frames = 0; failed = 0; unexpected = 0; rss_mb = nan }
  in
  let rss_ops = w.rss_rounds * w.round in
  let t_end = now () +. budget_s in
  let more () =
    match ops with
    | Some k -> t.n < k
    | None -> t.n < rss_ops || now () < t_end
  in
  while more () do
    for _ = 1 to w.round do
      let i = t.n in
      add_op w t i (w.op s m ~seed i)
    done;
    if t.n = rss_ops then t.rss_mb <- peak_rss_mb ()
  done;
  t

let op_time t = Array.fold_left ( +. ) 0. (Array.sub t.walls 0 t.n)

(* Mean op wall time of each round, sorted. A round holds the same mix
   of op kinds in every run, so percentiles over rounds do not jump
   between the modes of kinds that take different times. *)
let round_walls w t =
  let r =
    Array.init (t.n / w.round) (fun j ->
        Array.fold_left ( +. ) 0. (Array.sub t.walls (j * w.round) w.round) /. float_of_int w.round)
  in
  Array.sort compare r;
  r

(* --- per-layer replays --------------------------------------------------- *)

(* Each replay re-runs one layer's public function over inputs this
   workload produced, on copies, so the live fabric is untouched. *)
let replays fab frames ~events_per_op m =
  let ctrl = fab.Fab.ctrl in
  let pairs = Array.of_list (Controller.cached_pairs ctrl) in
  (* Algorithm-1 service over the bootstrap pair set on a fresh store. *)
  let store = Topo_store.create (Graph.copy (Topo_store.graph (Controller.store ctrl))) in
  let served, serve_s =
    timed "topo_store" "Topo_store.serve_path_graphs" (fun () ->
        Topo_store.serve_path_graphs store pairs)
  in
  Metrics.set m "topo_store.serve_ms" (serve_s *. 1e3);
  Metrics.set m "topo_store.graphs"
    (float_of_int (Array.fold_left (fun acc g -> if g = None then acc else acc + 1) 0 served));
  (* Path-response codec over the pushed graphs. *)
  let graphs =
    Array.of_list
      (List.filter_map
         (fun (src, dst) -> Controller.cached_graph ctrl ~src ~dst)
         (List.filteri (fun i _ -> i < 4096) (Array.to_list pairs)))
  in
  let n = max 1 (Array.length graphs) in
  let payloads = Array.map (fun pg -> Payload.Path_response (Pathgraph.to_wire pg)) graphs in
  let loops = max 1 (20_000 / n) in
  let encoded = Array.map Payload.encode payloads in
  let (), enc_s =
    timed "codec" "Payload.encode" (fun () ->
        for _ = 1 to loops do
          Array.iter (fun p -> ignore (Sys.opaque_identity (Payload.encode p))) payloads
        done)
  in
  let (), dec_s =
    timed "codec" "Payload.decode" (fun () ->
        for _ = 1 to loops do
          Array.iter (fun b -> ignore (Sys.opaque_identity (Payload.decode b))) encoded
        done)
  in
  let calls = float_of_int (n * loops) in
  Metrics.set m "codec.graph_bytes"
    (float_of_int (Array.fold_left (fun acc b -> acc + Bytes.length b) 0 encoded) /. float_of_int n);
  Metrics.set m "codec.encode_us" (enc_s /. calls *. 1e6);
  Metrics.set m "codec.decode_us" (dec_s /. calls *. 1e6);
  (* Frame codec round trip over the workload's own frame kinds. *)
  let fr = Array.of_list frames in
  let fn = max 1 (Array.length fr) in
  let floops = max 1 (50_000 / fn) in
  let (), rt_s =
    timed "codec" "Frame.to_bytes+of_bytes" (fun () ->
        for _ = 1 to floops do
          Array.iter (fun f -> ignore (Sys.opaque_identity (Frame.of_bytes (Frame.to_bytes f)))) fr
        done)
  in
  Metrics.set m "codec.frame_rt_ns" (rt_s /. float_of_int (fn * floops) *. 1e9);
  (* Host cache insertion and path choice on a throwaway agent. *)
  let built = fab.Fab.built in
  let h0 =
    match List.filter (fun h -> h <> built.Builder.controller) built.Builder.hosts with
    | h :: _ -> h
    | [] -> built.Builder.controller
  in
  let own = List.filter (fun (src, _) -> src = h0) (Array.to_list pairs) in
  let own_graphs = List.filter_map (fun (src, dst) -> Controller.cached_graph ctrl ~src ~dst) own in
  let eng = Engine.create ~backend:Engine.Heap () in
  let net = Network.create ~engine:eng ~graph:(Graph.copy built.Builder.graph) () in
  let agent = Agent.create ~network:net ~rng:(Dumbnet_util.Rng.create 7) ~self:h0 () in
  let gn = max 1 (List.length own_graphs) in
  let lloops = max 1 (2_000 / gn) in
  let (), learn_s =
    timed "agent" "Agent.learn_pathgraph" (fun () ->
        for _ = 1 to lloops do
          List.iter (Agent.learn_pathgraph agent) own_graphs
        done)
  in
  Metrics.set m "agent.learn_us" (learn_s /. float_of_int (gn * lloops) *. 1e6);
  let pt = Agent.pathtable agent in
  let dsts = Array.of_list (List.map snd own) in
  let dn = max 1 (Array.length dsts) in
  let cloops = max 1 (200_000 / dn) in
  let (), choose_s =
    timed "agent" "Pathtable.choose" (fun () ->
        for flow = 1 to cloops do
          Array.iter (fun dst -> ignore (Sys.opaque_identity (Pathtable.choose pt ~dst ~flow))) dsts
        done)
  in
  Metrics.set m "pathtable.choose_ns" (choose_s /. float_of_int (dn * cloops) *. 1e9);
  (* Scheduler cost alone: no-op events at the workload's event count. *)
  let events = max 10_000 (min 500_000 events_per_op) in
  let e = Engine.create ~backend:Engine.Heap () in
  let (), sched_s =
    timed "engine" "Engine.schedule+run (no-op)" (fun () ->
        for i = 1 to events do
          Engine.schedule e ~delay_ns:(i * 7919 mod 100_003) ignore
        done;
        Engine.run e)
  in
  Metrics.set m "engine.sched_ns" (sched_s /. float_of_int events *. 1e9);
  (* One switch's data plane over data, notice and probe frames. *)
  let tags = [ 2; 3; 1 ] in
  let data =
    Frame.along_path ~src:h0 ~dst:h0 ~tags_of:tags
      ~payload:(Payload.Data { flow = 1; seq = 0; size = 1450; sent_ns = 0 })
  in
  let notice =
    Frame.notice ~origin:0
      ~event:{ Payload.position = { Types.sw = 0; port = 1 }; up = false; event_seq = 1 }
      ~hops_left:3
  in
  let probe =
    Frame.with_prog
      (Probe_prog.of_instrs
         [ Probe_prog.stamp_all; Probe_prog.bounce ~pred:(Probe_prog.at_hop 2) [ 1 ] ])
      (Frame.along_path ~src:h0 ~dst:h0 ~tags_of:tags
         ~payload:(Payload.Int_probe { origin = h0; seq = 0; sent_ns = 0 }))
  in
  let dp = [| data; notice; probe |] in
  let dloops = 100_000 in
  let stamp port = { Int_stamp.switch = 0; port; queue_depth = 0; timestamp_ns = 0 } in
  let (), handle_s =
    timed "dataplane" "Dataplane.handle" (fun () ->
        for _ = 1 to dloops do
          Array.iter
            (fun f ->
              ignore
                (Sys.opaque_identity
                   (Dumbnet_switch.Dataplane.handle ~self:0 ~num_ports:64
                      ~port_up:(fun _ -> true)
                      ~stamp ~in_port:1 f)))
            dp
        done)
  in
  Metrics.set m "dataplane.handle_ns" (handle_s /. float_of_int (3 * dloops) *. 1e9)

(* --- result ------------------------------------------------------------ *)

let e2e_metrics =
  [
    ("setup_s", "s");
    ("ops_per_s", "ops/s");
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("frames_per_op", "frames");
    ("alloc_mw_per_op", "Mwords");
    ("peak_rss_mb", "MiB");
  ]

(* Every per-layer metric, in the order BENCHMARK.json lists them. *)
let layer_metrics =
  [
    ("discovery.ms", "ms");
    ("discovery.probes", "count");
    ("controller.bootstrap_ms", "ms");
    ("controller.regen_ms", "ms");
    ("controller.push_ms", "ms");
    ("controller.repushed_pairs", "count");
    ("topo_store.serve_ms", "ms");
    ("topo_store.graphs", "count");
    ("topo_store.dist_misses", "count");
    ("topo_store.evicted_roots", "count");
    ("topo_store.retained_roots", "count");
    ("codec.graph_bytes", "bytes");
    ("codec.encode_us", "us");
    ("codec.decode_us", "us");
    ("codec.frame_rt_ns", "ns");
    ("agent.learn_us", "us");
    ("agent.floods_sent", "count");
    ("agent.data_sent", "count");
    ("pathtable.choose_ns", "ns");
    ("engine.run_ms", "ms");
    ("engine.events", "count");
    ("engine.ns_per_event", "ns");
    ("engine.sched_ns", "ns");
    ("network.host_tx", "count");
    ("network.switch_hops", "count");
    ("network.queue_drops", "count");
    ("network.dataplane_drops", "count");
    ("network.bytes_delivered", "bytes");
    ("monitor.alarms", "count");
    ("dataplane.handle_ns", "ns");
    ("runner.flows", "count");
    ("runner.sim_job_ms", "sim_ms");
    ("localizer.probes", "count");
    ("localizer.batches", "count");
    ("localizer.sim_us", "sim_us");
    ("gc.minor_words_per_event", "words");
    ("gc.promoted_words", "words");
    ("gc.major_collections", "count");
    ("trace.attributed_share", "ratio");
    ("trace.overhead_share", "ratio");
  ]

let print_result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    attempted failed;
  List.iteri
    (fun i (name, unit, v) ->
      let v = if Float.is_finite v then v else 0. in
      Printf.bprintf b "%s%s: {\"value\": %.17g, \"unit\": %s}"
        (if i = 0 then "" else ", ")
        (Trace.json_string name) v (Trace.json_string unit))
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* The untraced run: end-to-end metrics. *)
let run_untraced w ~seed ~seconds =
  let s, setup_s = set_up w ~seed in
  let t = run_ops w s (Metrics.create ()) ~seed ~budget_s:seconds () in
  let fn = float_of_int t.n in
  let walls = round_walls w t in
  let metrics =
    [
      ("setup_s", setup_s);
      ("ops_per_s", fn /. op_time t);
      ("op_ms_p50", percentile walls 0.5 *. 1e3);
      ("op_ms_p90", percentile walls 0.9 *. 1e3);
      ("frames_per_op", float_of_int t.frames /. fn);
      ("alloc_mw_per_op", t.words /. fn /. 1e6);
      ("peak_rss_mb", t.rss_mb);
    ]
  in
  Printf.eprintf "perfbench: %s seed=%d ops=%d failed=%d p50=%.3fms setup=%.3fs\n%!" w.name seed
    t.n t.failed (percentile walls 0.5 *. 1e3) setup_s;
  print_result
    ~correct:(!wrong = 0 && t.unexpected = 0)
    ~attempted:t.n ~failed:t.failed
    (List.map (fun (name, unit) -> (name, unit, List.assoc name metrics)) e2e_metrics)

(* The traced run: the same ops untraced, then again traced from the
   same seed (the difference is the tracing overhead), then the
   replays. Per-layer counts are per traced op. *)
let run_traced w ~seed ~seconds ~out_dir =
  Trace.enabled := true;
  let s, _ = set_up w ~seed in
  Trace.enabled := false;
  let scratch = Metrics.create () in
  let plain = run_ops w s scratch ~seed ~budget_s:(seconds /. 2.) () in
  let n = plain.n in
  let m = Metrics.create () in
  let g0 = Gc.quick_stat () in
  Trace.enabled := true;
  let traced = run_ops w s m ~seed ~ops:n ~budget_s:0. () in
  let g1 = Gc.quick_stat () in
  let fn = float_of_int n in
  let per_call layer name =
    let t, c = Trace.total ~layer ~name () in
    if c = 0 then 0. else t /. float_of_int c
  in
  let events = Metrics.get m "engine.events" in
  let run_s =
    fst (Trace.total ~in_ops:true ~layer:"engine" ~name:"Engine.run" ())
    +. fst (Trace.total ~in_ops:true ~layer:"runner" ~name:"Runner.run" ())
  in
  let fab = w.fabric s in
  let per_op = Metrics.create () in
  Hashtbl.iter (fun k v -> Metrics.set per_op k (v /. fn)) m;
  let attributed = Trace.attributed_share () in
  replays fab (w.sample_frames s) ~events_per_op:(int_of_float (events /. fn)) per_op;
  Trace.enabled := false;
  Metrics.set per_op "discovery.ms" (per_call "discovery" "Controller.discover" *. 1e3);
  Metrics.set per_op "discovery.probes"
    (float_of_int fab.Fab.disco.Dumbnet_control.Discovery.stats.Dumbnet_control.Discovery.probes_sent);
  Metrics.set per_op "controller.bootstrap_ms"
    (per_call "controller" "Controller.bootstrap_push" *. 1e3);
  Metrics.set per_op "engine.run_ms" (run_s /. fn *. 1e3);
  Metrics.set per_op "engine.ns_per_event" (if events > 0. then run_s /. events *. 1e9 else 0.);
  let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
  Metrics.set per_op "gc.minor_words_per_event" (if events > 0. then minor /. events else 0.);
  Metrics.set per_op "gc.promoted_words" ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. fn);
  Metrics.set per_op "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) /. fn);
  Metrics.set per_op "trace.attributed_share" attributed;
  Metrics.set per_op "trace.overhead_share" ((op_time traced /. op_time plain) -. 1.);
  let base = Printf.sprintf "%s/%s-seed%d" out_dir w.name seed in
  Trace.write_chrome (base ^ ".trace.json");
  Trace.write_summary (base ^ ".layers.txt");
  Printf.eprintf "perfbench: %s seed=%d traced ops=%d, trace in %s.trace.json\n%!" w.name seed n base;
  print_result
    ~correct:(!wrong = 0 && traced.unexpected = 0)
    ~attempted:n ~failed:traced.failed
    (List.map (fun (name, unit) -> (name, unit, Metrics.get per_op name)) layer_metrics)
