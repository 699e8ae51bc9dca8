(* bringup-ft16: bring a fat-tree k=16 fabric (320 switches, 1,024
   hosts) up from its built topology to quiescence — discovery, the
   controller's cold Algorithm-1 bootstrap push, and the engine run
   that delivers it. No flood and no data traffic run here. *)

open Dumbnet_topology
open Dumbnet_packet
open Dumbnet_host

type t = {
  built : Builder.built;
  mutable last : Fab.t option;
}

(* The seed picks the controller host, which is where discovery starts
   and where every pushed path graph comes from. Set-up ends with one
   untimed warm-up bring-up, so the timed ops find the heap grown. *)
let setup ~seed =
  let built = Trace.span "topology" "Builder.fat_tree" (fun () -> Builder.fat_tree ~k:16 ()) in
  let hosts = Array.of_list built.Builder.hosts in
  let rng = Dumbnet_util.Rng.create seed in
  let built =
    { built with Builder.controller = hosts.(Dumbnet_util.Rng.int rng (Array.length hosts)) }
  in
  let warm = Fab.bring_up ~seed { built with Builder.graph = Graph.copy built.Builder.graph } in
  { built; last = Some warm }

(* Every pushed primary path walks to its destination on the ground
   truth, over exactly as many switches as a BFS shortest path. *)
let check_pushed (fab : Fab.t) =
  let g = fab.Fab.built.Builder.graph in
  let dists = Hashtbl.create 64 in
  let dist_from sw =
    match Hashtbl.find_opt dists sw with
    | Some d -> d
    | None ->
      let d = Oracle.bfs g sw in
      Hashtbl.replace dists sw d;
      d
  in
  let sw_of h = Option.map (fun (l : Types.link_end) -> l.Types.sw) (Graph.host_location g h) in
  let pairs = Controller.cached_pairs fab.Fab.ctrl in
  Bench.check "bootstrap pushed path graphs" (pairs <> []);
  List.iter
    (fun (src, dst) ->
      match (Controller.cached_graph fab.Fab.ctrl ~src ~dst, sw_of src, sw_of dst) with
      | Some pg, Some a, Some b ->
        let p = Pathgraph.primary pg in
        Bench.check
          (Printf.sprintf "pushed primary H%d->H%d walks to its destination" src dst)
          (Oracle.walks g p);
        Bench.check
          (Printf.sprintf "pushed primary H%d->H%d is a shortest path" src dst)
          (Hashtbl.find_opt (dist_from a) b = Some (Path.length p - 1))
      | _ -> Bench.check (Printf.sprintf "pair H%d->H%d resolvable" src dst) false)
    pairs

let op t m ~seed i =
  let built = { t.built with Builder.graph = Graph.copy t.built.Builder.graph } in
  (* Collect the previous op's fabric off the clock, so every op starts
     from the same heap. *)
  t.last <- None;
  Gc.full_major ();
  let fab, wall_s, words = Bench.clock i (fun () -> Fab.bring_up ~seed:(seed + i) built) in
  let after = Fab.snap fab in
  Fab.add_delta m Fab.zero after;
  let failed =
    Bench.missed (fun () ->
        Bench.check "discovered topology matches the built graph"
          (Oracle.same_shape ~truth:t.built.Builder.graph
             ~seen:fab.Fab.disco.Dumbnet_control.Discovery.topology);
        check_pushed fab)
  in
  t.last <- Some fab;
  { Bench.wall_s; words; frames = Fab.frames Fab.zero after; failed }

let fabric t =
  match t.last with
  | Some f -> f
  | None -> invalid_arg "Bringup.fabric: no op has run"

(* What a bring-up sends: controller hellos, peer lists and path
   responses. *)
let frames t =
  let fab = fabric t in
  let c = fab.Fab.built.Builder.controller in
  List.concat_map
    (fun (src, dst) ->
      match Controller.cached_graph fab.Fab.ctrl ~src ~dst with
      | None -> []
      | Some pg ->
        let back = Path.tags (Pathgraph.primary pg) in
        [
          Frame.along_path ~src:c ~dst:src ~tags_of:back
            ~payload:(Payload.Path_response (Pathgraph.to_wire pg));
          Frame.along_path ~src:c ~dst:src ~tags_of:back
            ~payload:(Payload.Peer_list { peers = Controller.flood_peers_of fab.Fab.ctrl src });
          Frame.along_path ~src:c ~dst:src ~tags_of:back
            ~payload:(Payload.Controller_hello { controller = c });
        ])
    (List.filteri (fun i _ -> i < 64) (Controller.cached_pairs fab.Fab.ctrl))

let workload =
  {
    Bench.name = "bringup-ft16";
    round = 1;
    setup_reps = 3;
    rss_rounds = 2;
    setup;
    op;
    fabric;
    sample_frames = frames;
    known_fault = (fun _ -> false);
  }
