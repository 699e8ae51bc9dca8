(* Ground truth computed apart from the program: breadth-first search
   and tag-by-tag path walks over the built graph, used to check the
   program's outputs. *)

open Dumbnet_topology
open Types

(* Switch-hop distances from [src] over up switch-to-switch cables. *)
let bfs g src =
  let dist = Hashtbl.create 64 in
  let q = Queue.create () in
  Hashtbl.replace dist src 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let du = Hashtbl.find dist u in
    List.iter
      (fun (_, v, _) ->
        if not (Hashtbl.mem dist v) then begin
          Hashtbl.replace dist v (du + 1);
          Queue.push v q
        end)
      (Graph.switch_neighbors g u)
  done;
  dist

(* Follow [path]'s tags from its source's access port over [g], crossing
   only up cables; [true] iff every hop lands on the switch the path
   names and the last tag delivers to the destination host. *)
let walks g (path : Path.t) =
  match Graph.host_location g path.Path.src with
  | None -> false
  | Some loc ->
    let rec go sw = function
      | [] -> false
      | (hop_sw, port) :: rest -> (
        hop_sw = sw
        && Graph.link_up g { sw; port }
        &&
        match (Graph.endpoint_at g { sw; port }, rest) with
        | Some (Host h), [] -> h = path.Path.dst
        | Some (Switch next), _ :: _ -> go next rest
        | Some (Host _), _ :: _ | Some (Switch _), [] | None, _ -> false)
    in
    Graph.link_up g loc && go loc.sw path.Path.hops

let crosses (path : Path.t) (a : link_end) (b : link_end) =
  List.exists
    (fun (sw, port) -> (sw = a.sw && port = a.port) || (sw = b.sw && port = b.port))
    path.Path.hops

(* Per-switch count of occupied, up ports, sorted. *)
let degree_sequence g =
  List.sort compare (List.map (fun sw -> List.length (Graph.neighbors g sw)) (Graph.switch_ids g))

let same_shape ~truth ~seen =
  Graph.num_switches truth = Graph.num_switches seen
  && Graph.num_hosts truth = Graph.num_hosts seen
  && List.length (Graph.switch_links truth) = List.length (Graph.switch_links seen)
  && degree_sequence truth = degree_sequence seen
