(* failover-ft8: fail one seeded fabric cable of a fat-tree k=8 fabric
   and run to quiescence — the §4.2 stage-1 notification flood, host
   failover, then the controller's scoped regeneration and delta
   re-push. The cable is restored off the clock once the monitors' 1 s
   suppression window has passed. *)

open Dumbnet_topology
open Dumbnet_packet
open Dumbnet_sim
open Dumbnet_host

type t = {
  fab : Fab.t;
  tiers : Types.Link_key.t array array;
      (** edge-aggregation cables, then aggregation-core cables *)
}

let suppress_window_ns = 1_100_000_000

(* The seed picks the controller host; each op's cable comes from
   (seed, op index). A round fails one cable of each tier, since the
   flood a failure sets off depends on the tier: every run then holds
   the same mix. *)
let setup ~seed =
  let built = Trace.span "topology" "Builder.fat_tree" (fun () -> Builder.fat_tree ~k:8 ()) in
  let hosts = Array.of_list built.Builder.hosts in
  let rng = Dumbnet_util.Rng.create seed in
  let built =
    { built with Builder.controller = hosts.(Dumbnet_util.Rng.int rng (Array.length hosts)) }
  in
  let fab = Fab.bring_up ~seed built in
  let g = Network.graph fab.Fab.net in
  let at_edge (key, _) =
    let a, b = Types.Link_key.ends key in
    Graph.hosts_on_switch g a.Types.sw <> [] || Graph.hosts_on_switch g b.Types.sw <> []
  in
  let edge, core = List.partition at_edge (Graph.switch_links g) in
  { fab; tiers = Array.map (fun l -> Array.of_list (List.map fst l)) [| edge; core |] }

(* After quiescence no host's cached path crosses the failed cable, and
   every cached path walks to its destination with the cable down. *)
let check_caches (fab : Fab.t) a b =
  let g = Network.graph fab.Fab.net in
  Hashtbl.iter
    (fun h agent ->
      let pt = Agent.pathtable agent in
      List.iter
        (fun dst ->
          List.iter
            (fun p ->
              Bench.check
                (Printf.sprintf "H%d->H%d cached path avoids the failed cable" h dst)
                (not (Oracle.crosses p a b));
              Bench.check
                (Printf.sprintf "H%d->H%d cached path walks with the cable down" h dst)
                (Oracle.walks g p))
            (Pathtable.paths_to pt ~dst))
        (Topocache.known (Agent.topocache agent)))
    fab.Fab.agents

let op t m ~seed i =
  let fab = t.fab in
  let rng = Bench.op_rng ~seed i in
  let tier = t.tiers.(i mod 2) in
  let key = tier.(Dumbnet_util.Rng.int rng (Array.length tier)) in
  let a, b = Types.Link_key.ends key in
  let before = Fab.snap fab in
  let (), wall_s, words =
    Bench.clock i (fun () ->
        Trace.span "network" "Network.fail_link" (fun () -> Network.fail_link fab.Fab.net a);
        Trace.span "engine" "Engine.run" (fun () -> Engine.run fab.Fab.eng))
  in
  let after = Fab.snap fab in
  Fab.add_delta m before after;
  let failed = Bench.missed (fun () -> check_caches fab a b) in
  Engine.run ~until_ns:(Engine.now fab.Fab.eng + suppress_window_ns) fab.Fab.eng;
  Network.restore_link fab.Fab.net a;
  Engine.run fab.Fab.eng;
  { Bench.wall_s; words; frames = Fab.frames before after; failed }

(* What a failure sends: switch port notices, host floods, the
   controller's patch and its re-pushed path responses. *)
let frames t =
  let fab = t.fab in
  let c = fab.Fab.built.Builder.controller in
  let event = { Payload.position = { Types.sw = 0; port = 1 }; up = false; event_seq = 1 } in
  let a, b = Types.Link_key.ends t.tiers.(0).(0) in
  let notice = Frame.notice ~origin:0 ~event ~hops_left:3 in
  List.concat_map
    (fun (src, dst) ->
      match Controller.cached_graph fab.Fab.ctrl ~src ~dst with
      | None -> []
      | Some pg ->
        let tags = Path.tags (Pathgraph.primary pg) in
        [
          notice;
          Frame.along_path ~src ~dst ~tags_of:tags
            ~payload:(Payload.Host_flood { event; origin = src });
          Frame.along_path ~src:c ~dst:src ~tags_of:tags
            ~payload:
              (Payload.Topo_patch { version = 1; changes = [ Payload.Link_failed (a, b) ] });
          Frame.along_path ~src:c ~dst:src ~tags_of:tags
            ~payload:(Payload.Path_response (Pathgraph.to_wire pg));
        ])
    (List.filteri (fun i _ -> i < 64) (Controller.cached_pairs fab.Fab.ctrl))

let workload =
  {
    Bench.name = "failover-ft8";
    round = 2;
    setup_reps = 5;
    rss_rounds = 10;
    setup;
    op;
    fabric = (fun t -> t.fab);
    sample_frames = frames;
    known_fault = (fun _ -> false);
  }
