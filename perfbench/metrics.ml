(* Named per-layer sums, accumulated op by op in the traced run. *)

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64

let get (m : t) k = Option.value (Hashtbl.find_opt m k) ~default:0.

let add (m : t) k v = Hashtbl.replace m k (get m k +. v)

let set (m : t) k v = Hashtbl.replace m k v
