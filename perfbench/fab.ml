(* Fabric assembly, step by step, with the measured configuration fixed
   here rather than read from the environment: the heap engine, one
   controller job, no shards. The steps are those of [Fabric.create],
   each wrapped in a span of the layer it enters. *)

open Dumbnet_topology
open Dumbnet_sim
open Dumbnet_host
module Rng = Dumbnet_util.Rng
module Discovery = Dumbnet_control.Discovery

type t = {
  built : Builder.built;
  eng : Engine.t;
  net : Network.t;
  agents : (Types.host_id, Agent.t) Hashtbl.t;
  ctrl : Controller.t;
  disco : Discovery.result;
}

let agent t h =
  match Hashtbl.find_opt t.agents h with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Fab.agent: unknown host %d" h)

let max_ports g =
  List.fold_left (fun acc sw -> max acc (Graph.ports_of g sw)) 1 (Graph.switch_ids g)

(* [built]'s graph becomes the network's ground truth; pass a copy when
   the same topology is brought up more than once. *)
let bring_up ?config ~seed built =
  let rng = Rng.create seed in
  let eng = Trace.span "engine" "Engine.create" (fun () -> Engine.create ~backend:Engine.Heap ()) in
  let net =
    Trace.span "network" "Network.create" (fun () ->
        Network.create ?config ~engine:eng ~graph:built.Builder.graph ())
  in
  let agents = Hashtbl.create 64 in
  Trace.span "agent" "Agent.create" (fun () ->
      List.iter
        (fun h -> Hashtbl.replace agents h (Agent.create ~network:net ~rng:(Rng.split rng) ~self:h ()))
        built.Builder.hosts);
  let ctrl_agent =
    match Hashtbl.find_opt agents built.Builder.controller with
    | Some a -> a
    | None -> invalid_arg "Fab.bring_up: controller host has no agent"
  in
  let max_ports = max_ports built.Builder.graph in
  let disco =
    match
      Trace.span "discovery" "Controller.discover" (fun () ->
          Controller.discover ~agent:ctrl_agent ~max_ports ())
    with
    | Some d -> d
    | None -> failwith "Fab.bring_up: discovery failed"
  in
  let ctrl =
    Trace.span "controller" "Controller.create" (fun () ->
        Controller.create ~jobs:1 ~agent:ctrl_agent ~topology:disco.Discovery.topology
          ~hosts:built.Builder.hosts ())
  in
  Controller.set_prober ctrl (fun tags ->
      Dumbnet_control.Probe_walk.probe (Network.graph net) ~origin:built.Builder.controller ~tags);
  Trace.span "controller" "Controller.bootstrap_push" (fun () -> Controller.bootstrap_push ctrl);
  Trace.span "engine" "Engine.run" (fun () -> Engine.run eng);
  { built; eng; net; agents; ctrl; disco }

(* Counters of every layer, read at op boundaries; an op's counts are
   the difference of two snapshots. *)
type snap = {
  host_tx : int;
  switch_hops : int;
  queue_drops : int;
  dataplane_drops : int;
  bytes_delivered : int;
  alarms : int;
  floods_sent : int;
  data_sent : int;
  events : int;
  dist_misses : int;
  evicted : int;
  retained : int;
  repushed : int;
  regen_s : float;
  push_s : float;
}

let snap t =
  let s = Network.stats t.net in
  let floods = ref 0 and data = ref 0 in
  Hashtbl.iter
    (fun _ a ->
      let st = Agent.stats a in
      floods := !floods + st.Agent.floods_sent;
      data := !data + st.Agent.data_sent)
    t.agents;
  let alarms =
    List.fold_left
      (fun acc sw -> acc + Dumbnet_switch.Monitor.alarms_emitted (Network.monitor t.net sw))
      0
      (Graph.switch_ids (Network.graph t.net))
  in
  let store = Controller.store t.ctrl in
  let _, misses = Dumbnet_control.Topo_store.dist_cache_stats store in
  let rs = Dumbnet_control.Topo_store.repair_stats store in
  let ps = Controller.repush_stats t.ctrl in
  {
    host_tx = s.Network.host_tx;
    switch_hops = s.Network.switch_hops;
    queue_drops = s.Network.queue_drops;
    dataplane_drops = s.Network.dataplane_drops;
    bytes_delivered = s.Network.bytes_delivered;
    alarms;
    floods_sent = !floods;
    data_sent = !data;
    events = Engine.events_processed t.eng;
    dist_misses = misses;
    evicted = rs.Dumbnet_control.Topo_store.evicted_roots;
    retained = rs.Dumbnet_control.Topo_store.retained_roots;
    repushed = ps.Controller.repushed_pairs;
    regen_s = ps.Controller.regen_s;
    push_s = ps.Controller.push_s;
  }

(* An empty snapshot: the baseline of a fabric that did not exist
   before the op. *)
let zero =
  {
    host_tx = 0;
    switch_hops = 0;
    queue_drops = 0;
    dataplane_drops = 0;
    bytes_delivered = 0;
    alarms = 0;
    floods_sent = 0;
    data_sent = 0;
    events = 0;
    dist_misses = 0;
    evicted = 0;
    retained = 0;
    repushed = 0;
    regen_s = 0.;
    push_s = 0.;
  }

let frames a b = b.host_tx - a.host_tx + (b.switch_hops - a.switch_hops)

(* Fold one op's counter deltas into the per-layer sums. *)
let add_delta m a b =
  let c name v = Metrics.add m name (float_of_int v) in
  c "network.host_tx" (b.host_tx - a.host_tx);
  c "network.switch_hops" (b.switch_hops - a.switch_hops);
  c "network.queue_drops" (b.queue_drops - a.queue_drops);
  c "network.dataplane_drops" (b.dataplane_drops - a.dataplane_drops);
  c "network.bytes_delivered" (b.bytes_delivered - a.bytes_delivered);
  c "monitor.alarms" (b.alarms - a.alarms);
  c "agent.floods_sent" (b.floods_sent - a.floods_sent);
  c "agent.data_sent" (b.data_sent - a.data_sent);
  c "engine.events" (b.events - a.events);
  c "topo_store.dist_misses" (b.dist_misses - a.dist_misses);
  c "topo_store.evicted_roots" (b.evicted - a.evicted);
  c "topo_store.retained_roots" (b.retained - a.retained);
  c "controller.repushed_pairs" (b.repushed - a.repushed);
  Metrics.add m "controller.regen_ms" ((b.regen_s -. a.regen_s) *. 1e3);
  Metrics.add m "controller.push_ms" ((b.push_s -. a.push_s) *. 1e3)
