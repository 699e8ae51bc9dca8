(* In-memory spans recorded around the benchmark's calls into each layer.

   Spans are only recorded while [enabled] is set (the traced run); an
   untraced run pays one flag test per call site. Each span knows its
   nesting depth, so the summary can tell outer spans (the calls the
   benchmark makes directly inside an op) from nested ones. *)

type span = {
  layer : string;
  name : string;
  start_s : float;
  dur_s : float;
  depth : int;
  op : int;  (** op index the span ran under; -1 outside ops *)
}

let enabled = ref false

let spans : span list ref = ref []

let depth = ref 0

let current_op = ref (-1)

let now = Unix.gettimeofday

let origin = now ()

let record ~layer ~name ~start_s ~dur_s ~depth =
  spans := { layer; name; start_s; dur_s; depth; op = !current_op } :: !spans

let span layer name f =
  if not !enabled then f ()
  else begin
    let d = !depth in
    depth := d + 1;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      depth := d;
      record ~layer ~name ~start_s:t0 ~dur_s:(t1 -. t0) ~depth:d
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* The op span itself sits at depth 0; the layer calls it covers sit at
   depth 1 and are the "outer" spans [attributed_share] sums. *)
let op i f =
  if not !enabled then f ()
  else begin
    current_op := i;
    let r = span "op" "op" f in
    current_op := -1;
    r
  end

(* Share of traced op wall time covered by depth-1 spans. *)
let attributed_share () =
  let op_total = ref 0. and covered = ref 0. in
  List.iter
    (fun s ->
      if s.op >= 0 then
        if s.depth = 0 then op_total := !op_total +. s.dur_s
        else if s.depth = 1 then covered := !covered +. s.dur_s)
    !spans;
  if !op_total > 0. then !covered /. !op_total else 0.

(* Total seconds and count of the spans with this layer and name; only
   those inside ops with [in_ops]. *)
let total ?(in_ops = false) ~layer ~name () =
  List.fold_left
    (fun (t, c) s ->
      if s.layer = layer && s.name = name && ((not in_ops) || s.op >= 0) then (t +. s.dur_s, c + 1)
      else (t, c))
    (0., 0) !spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON (opens in Perfetto or chrome://tracing). *)
let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun s ->
      if not !first then output_string oc ",\n";
      first := false;
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"op\":%d}}"
        (json_string s.name) (json_string s.layer)
        ((s.start_s -. origin) *. 1e6)
        (s.dur_s *. 1e6) s.op)
    (List.rev !spans);
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc

(* Per-layer summary: a span's self time is its duration minus what its
   direct children cover, so the self column adds up to traced wall
   time without double counting nested calls. *)
let write_summary path =
  let sorted = Array.of_list (List.sort (fun a b -> compare a.start_s b.start_s) !spans) in
  let n = Array.length sorted in
  let self = Array.map (fun s -> s.dur_s) sorted in
  (* The parent of a span is the nearest earlier span one level up. *)
  let open_at = Hashtbl.create 8 in
  Array.iteri
    (fun i s ->
      (match Hashtbl.find_opt open_at (s.depth - 1) with
      | Some p -> self.(p) <- self.(p) -. s.dur_s
      | None -> ());
      Hashtbl.replace open_at s.depth i)
    sorted;
  let rows = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let s = sorted.(i) in
    let key = (s.layer, s.name) in
    let t, st, c = Option.value (Hashtbl.find_opt rows key) ~default:(0., 0., 0) in
    Hashtbl.replace rows key (t +. s.dur_s, st +. self.(i), c + 1)
  done;
  let oc = open_out path in
  Printf.fprintf oc "%-12s %-34s %8s %12s %12s\n" "layer" "span" "calls" "total_ms" "self_ms";
  List.iter
    (fun ((l, name), (t, st, c)) ->
      Printf.fprintf oc "%-12s %-34s %8d %12.3f %12.3f\n" l name c (t *. 1e3) (st *. 1e3))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows []));
  Printf.fprintf oc "attributed_share %.4f\n" (attributed_share ());
  close_out oc
