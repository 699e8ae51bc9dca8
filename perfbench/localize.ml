(* localize-ft8: one hidden-fault trial on fat-tree k=8. A silent drop
   or a miswire is placed on a cable of one observer's cached primary
   path, [Localizer.diagnose] interrogates the path with probe
   programs, and the fault is undone. Trials rotate through three
   kinds: a silent drop, an off-path miswire, and a sibling swap — a
   miswire whose cable still lands on the expected switch, one port
   over. A round is a thousand rotations (about half a second), so a
   round's mean trial time averages over the cables the seed drew and
   over this machine's sub-second speed swings. *)

open Dumbnet_topology
open Dumbnet_sim
open Dumbnet_host
open Dumbnet_telemetry
open Dumbnet_diagnosis
module Rng = Dumbnet_util.Rng

type target = {
  dst : Types.host_id;
  leg : Prober.leg;
  legs : Prober.leg list;
}

type t = {
  fab : Fab.t;
  loc : Localizer.t;
  targets : target array;  (** one per cable of each cached primary path *)
  siblings : (target * Types.link_end) array;
      (** every sibling swap on those paths, in a fixed order *)
  cable_ends : (Types.link_end * Types.link_end) array;
      (** every healthy cable as (swapped end, far end), both orientations *)
}

(* Fixed, whatever the workload seed: the sibling swaps are the known
   fault (every one fails today), so their inputs must not vary. *)
let fabric_seed = 41

let diagnose_window_ns = 200_000_000

let on_path legs (le : Types.link_end) =
  List.exists
    (fun (l : Prober.leg) ->
      (l.Prober.leg_from.Types.sw = le.Types.sw && l.Prober.leg_from.Types.port = le.Types.port)
      || (l.Prober.leg_to.Types.sw = le.Types.sw && l.Prober.leg_to.Types.port = le.Types.port))
    legs

(* Healthy cables as (swapped end, far end), both orientations. *)
let cable_ends g =
  List.concat_map
    (fun (key, up) ->
      let a, b = Types.Link_key.ends key in
      if up then [ (a, b); (b, a) ] else [])
    (Graph.switch_links g)

let off_path legs (a, b) = (not (on_path legs a)) && not (on_path legs b)

(* Off-path cables of [legs], in [cable_ends] order. *)
let off_path_ends g legs = List.filter (off_path legs) (cable_ends g)

let setup ~seed:_ =
  let built = Trace.span "topology" "Builder.fat_tree" (fun () -> Builder.fat_tree ~k:8 ()) in
  let fab = Fab.bring_up ~seed:fabric_seed built in
  let observer =
    match List.filter (fun h -> h <> built.Builder.controller) built.Builder.hosts with
    | h :: _ -> h
    | [] -> built.Builder.controller
  in
  let agent = Fab.agent fab observer in
  Trace.span "agent" "Agent.query_path (warm-up)" (fun () ->
      List.iter
        (fun dst -> if dst <> observer then ignore (Agent.query_path agent ~dst))
        built.Builder.hosts;
      Engine.run fab.Fab.eng);
  let ep = Endpoint.attach ~probing:false ~watching:false ~engine:fab.Fab.eng ~agent () in
  (* demote:false keeps the caches pristine, so every trial starts from
     the same healthy state. *)
  let loc = Localizer.create ~demote:false ~engine:fab.Fab.eng ~agent ~prober:(Endpoint.prober ep) () in
  let cache = Agent.topocache agent in
  let targets =
    List.concat_map
      (fun dst ->
        match Topocache.get cache ~dst with
        | None -> []
        | Some pg -> (
          match Prober.path_legs ~adj:(Pathgraph.adjacency pg) (Pathgraph.primary pg) with
          | Some legs -> List.map (fun leg -> { dst; leg; legs }) legs
          | None -> []))
      (List.sort compare (Topocache.known cache))
  in
  let g = Network.graph fab.Fab.net in
  let siblings =
    List.concat_map
      (fun tg ->
        List.filter_map
          (fun (near, far) ->
            if
              far.Types.sw = tg.leg.Prober.leg_to.Types.sw
              && far.Types.port <> tg.leg.Prober.leg_to.Types.port
              && near.Types.sw <> tg.leg.Prober.leg_from.Types.sw
            then Some (tg, near)
            else None)
          (off_path_ends g tg.legs))
      targets
  in
  let siblings = Array.of_list siblings in
  Rng.shuffle (Rng.create fabric_seed) siblings;
  { fab; loc; targets = Array.of_list targets; siblings; cable_ends = Array.of_list (cable_ends g) }

type fault =
  | Drop
  | Swap of Types.link_end

(* Round position 0: silent drop; 1: off-path miswire whose cable lands
   on a foreign switch; 2: sibling swap. *)
let is_sibling i = i mod 3 = 2

let pick t ~seed i =
  if is_sibling i then
    let tg, partner = t.siblings.(i / 3 mod Array.length t.siblings) in
    (tg, Swap partner)
  else begin
    let rng = Bench.op_rng ~seed i in
    let tg = t.targets.(Rng.int rng (Array.length t.targets)) in
    if i mod 3 = 0 then (tg, Drop)
    else
      (* A uniform draw among the off-path cables whose far end is a
         foreign switch, scanned in place: the fabric is healthy between
         trials, so [cable_ends] is its wiring. *)
      let foreign ((_, (far : Types.link_end)) as e) =
        far.Types.sw <> tg.leg.Prober.leg_to.Types.sw && off_path tg.legs e
      in
      let count = Array.fold_left (fun n e -> if foreign e then n + 1 else n) 0 t.cable_ends in
      let rec nth j k =
        if foreign t.cable_ends.(j) then if k = 0 then fst t.cable_ends.(j) else nth (j + 1) (k - 1)
        else nth (j + 1) k
      in
      (tg, Swap (nth 0 (Rng.int rng count)))
  end

let op t m ~seed i =
  let tg, fault = pick t ~seed i in
  let net = t.fab.Fab.net and eng = t.fab.Fab.eng in
  let target = Types.Link_key.make tg.leg.Prober.leg_from tg.leg.Prober.leg_to in
  let before = Fab.snap t.fab in
  let got = ref None in
  let (), wall_s, words =
    Bench.clock i (fun () ->
        Trace.span "network" "Network.inject" (fun () ->
            match fault with
            | Drop -> Network.set_cable_fault net tg.leg.Prober.leg_from (Some Network.Silent_drop)
            | Swap p -> Network.rewire_swap net tg.leg.Prober.leg_from p);
        let launched =
          Trace.span "diagnosis" "Localizer.diagnose" (fun () ->
              Localizer.diagnose t.loc ~dst:tg.dst ~on_done:(fun v -> got := Some v))
        in
        if launched then
          Trace.span "engine" "Engine.run" (fun () ->
              Engine.run ~until_ns:(Engine.now eng + diagnose_window_ns) eng);
        Trace.span "network" "Network.undo" (fun () ->
            match fault with
            | Drop -> Network.clear_faults net
            | Swap p -> Network.rewire_swap net tg.leg.Prober.leg_from p))
  in
  let after = Fab.snap t.fab in
  Fab.add_delta m before after;
  let exact =
    match (!got, fault) with
    | Some v, _ -> (
      Metrics.add m "localizer.probes" (float_of_int v.Localizer.v_probes);
      Metrics.add m "localizer.batches" (float_of_int v.Localizer.v_batches);
      Metrics.add m "localizer.sim_us" (float_of_int v.Localizer.v_elapsed_ns /. 1e3);
      match (v.Localizer.v_class, fault) with
      | Localizer.Silent_drop { near; far }, Drop
      | Localizer.Miswired { near; far; _ }, Swap _ ->
        Types.Link_key.equal (Types.Link_key.make near far) target
      | _ -> false)
    | None, _ -> false
  in
  { Bench.wall_s; words; frames = Fab.frames before after; failed = not exact }

(* What a trial sends: the localizer's probe-program frames. *)
let frames t =
  let c = Array.length t.targets in
  List.init (min c 64) (fun j ->
      let tg = t.targets.(j) in
      let tags = List.map (fun (l : Prober.leg) -> l.Prober.leg_from.Types.port) tg.legs in
      Dumbnet_packet.Frame.with_prog
        (Dumbnet_packet.Probe_prog.of_instrs
           [
             Dumbnet_packet.Probe_prog.stamp_all;
             Dumbnet_packet.Probe_prog.bounce ~pred:(Dumbnet_packet.Probe_prog.at_hop 2) [ 1; 2 ];
           ])
        (Dumbnet_packet.Frame.along_path ~src:0 ~dst:0 ~tags_of:tags
           ~payload:(Dumbnet_packet.Payload.Int_probe { origin = 0; seq = j; sent_ns = 0 })))

let workload =
  {
    Bench.name = "localize-ft8";
    round = 3000;
    setup_reps = 5;
    rss_rounds = 10;
    setup;
    op;
    fabric = (fun t -> t.fab);
    sample_frames = frames;
    known_fault = is_sibling;
  }
