module Atom = Relational.Atom
module Instance = Relational.Instance
module Value = Relational.Value

let delta = Instance.symdiff

(* Does [b] agree with [a] on every non-null position of [a]?  Same
   predicate and arity are required. *)
let matches_non_null_positions a b =
  String.equal (Atom.pred a) (Atom.pred b)
  && Atom.arity a = Atom.arity b
  &&
  let ta = Atom.args a and tb = Atom.args b in
  let rec go i =
    i >= Array.length ta
    || ((Value.is_null ta.(i) || Value.equal ta.(i) tb.(i)) && go (i + 1))
  in
  go 0

let delta_set d d' = Instance.atom_set (delta d d')

(* Definition 6 on the deltas: [delta'] = Delta(D, D') and [delta''] =
   Delta(D, D'').  This is the one definition of [<=_D]; everything below
   decides it through here, so each candidate's delta is built once and
   no instance is built per compared pair. *)
let leq_delta delta' delta'' =
  Atom.Set.for_all
    (fun a ->
      Atom.Set.mem a delta''
      || Atom.has_null a
         && Atom.Set.exists
              (fun b ->
                matches_non_null_positions a b && not (Atom.Set.mem b delta'))
              delta'')
    delta'

let lt_delta delta' delta'' =
  leq_delta delta' delta'' && not (leq_delta delta'' delta')

let leq ~d d' d'' = leq_delta (delta_set d d') (delta_set d d'')
let lt ~d d' d'' = lt_delta (delta_set d d') (delta_set d d'')

let with_deltas ~d xs = List.map (fun x -> (x, delta_set d x)) xs

let drop_beaten ~by candidates =
  List.filter_map
    (fun (x, dx) ->
      if List.exists (fun (_, dy) -> lt_delta dy dx) by then None else Some x)
    candidates

let unbeaten ~d ~by candidates =
  drop_beaten ~by:(with_deltas ~d by) (with_deltas ~d candidates)

let minimal_among ~d candidates =
  (* Dedup through the ordered comparator instead of pairwise [equal] scans;
     sorting also keeps the result deterministic for callers that print
     repair lists. *)
  let uniq = with_deltas ~d (List.sort_uniq Instance.compare candidates) in
  drop_beaten ~by:uniq uniq
