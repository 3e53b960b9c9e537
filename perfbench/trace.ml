(* In-memory spans and counters for the traced run.

   A span is recorded around each call the benchmark makes into a layer's
   public function: name, start, end, parent span and request id.  Spans
   stay in memory and are written out when the run ends.  A layer's self
   time is its spans' durations minus the parts their child spans cover;
   root spans (one per staged request) carry no layer name of their own
   and give the wall time that coverage is measured against. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  req : int;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable req : int;
  counts : (string, float) Hashtbl.t;
  mutable requests : int;  (* staged requests, the per-request divisor *)
}

let create () =
  {
    spans = [];
    next = 0;
    stack = [];
    req = 0;
    counts = Hashtbl.create 32;
    requests = 0;
  }

let now = Unix.gettimeofday

let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; parent; req = t.req; t0; t1 } :: t.spans
  in
  Fun.protect ~finally:finish f

(* A root span for request [req]. *)
let root t ~req name f =
  t.req <- req;
  span t name f

let count t name v =
  let old = Option.value ~default:0. (Hashtbl.find_opt t.counts name) in
  Hashtbl.replace t.counts name (old +. v)

(* [span] that also counts the words the call allocated, in millions,
   under [name ^ "_alloc_mw"]. *)
let span_alloc t name f =
  let b0 = Gc.allocated_bytes () in
  let r = span t name f in
  count t (name ^ "_alloc_mw")
    ((Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8) /. 1e6);
  r

let duration s = s.t1 -. s.t0

(* Self time per span name, in seconds, and the total root wall time. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  let self = Hashtbl.create 32 in
  let roots = ref 0. in
  List.iter
    (fun s ->
      if s.parent < 0 then roots := !roots +. duration s
      else
        let own = duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
        Hashtbl.replace self s.name
          (own +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    t.spans;
  (self, !roots)

(* Share of root wall time spent inside layer spans. *)
let coverage t =
  let self, roots = self_times t in
  let layers = Hashtbl.fold (fun _ v acc -> acc +. v) self 0. in
  if roots > 0. then layers /. roots else 0.

(* Self milliseconds of layer [name] per staged request. *)
let per_request_ms t name =
  let self, _ = self_times t in
  let v = Option.value ~default:0. (Hashtbl.find_opt self name) in
  v *. 1000. /. float_of_int (max 1 t.requests)

let per_request t name =
  Option.value ~default:0. (Hashtbl.find_opt t.counts name)
  /. float_of_int (max 1 t.requests)

let total t name = Option.value ~default:0. (Hashtbl.find_opt t.counts name)

let write t path =
  let base = match t.spans with [] -> 0. | _ -> List.fold_left (fun m s -> min m s.t0) infinity t.spans in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %d, \"start_us\": %.1f, \"end_us\": %.1f}\n"
            s.id s.name s.parent s.req
            ((s.t0 -. base) *. 1e6)
            ((s.t1 -. base) *. 1e6))
        (List.rev t.spans))
