module Atom = Relational.Atom
module Instance = Relational.Instance
module Nullsat = Semantics.Nullsat

exception Budget_exceeded of int

type action = Actions.action = Delete of Atom.t | Insert of Atom.t

let pp_action = Actions.pp_action
let fixes = Actions.fixes

(* Search states are deduplicated by their delta from the search's base:
   two states are equal iff their deltas are, and the deltas are small
   atom sets, where comparing whole instances walks every relation. *)
module Dset = Set.Make (Atom.Set)

let search ?budget ?(max_states = 200_000) ?universe ?nnc_positions ?explored d
    ics =
  (* The universe and NNC positions are instance-global (Proposition 1):
     per-component sub-searches receive the full instance's, already
     computed once by the planner, instead of refolding the active domain
     for every component. *)
  let universe =
    match universe with Some u -> u | None -> Candidates.universe d ics
  in
  let nnc_positions =
    match nnc_positions with
    | Some n -> n
    | None -> Actions.nnc_positions_of ics
  in
  let seen = ref Dset.empty in
  let consistent = ref [] in
  let count = match explored with Some r -> r := 0; r | None -> ref 0 in
  (* violations are tracked per constraint and recomputed only for the
     constraints mentioning the predicate an action touched — a constraint's
     violations depend solely on the tuples of its own predicates *)
  let rec explore state delta per_ic =
    if not (Dset.mem delta !seen) then begin
      seen := Dset.add delta !seen;
      incr count;
      if !count > max_states then raise (Budget_exceeded max_states);
      (match budget with Some b -> Budget.tick_state b | None -> ());
      match List.concat_map snd per_ic with
      | [] -> consistent := state :: !consistent
      | violations ->
          (* branch on the fixes of EVERY current violation: an insertion
             made for one constraint can be the only way another
             constraint's violation is resolved in some repair (e.g. a UIC
             consequent witnessing a RIC), so restricting to the first
             violation's own actions would lose repairs *)
          let actions =
            Actions.dedup_actions
              (List.concat_map
                 (Actions.fixes ~universe ~nnc_positions state)
                 violations)
          in
          List.iter
            (fun act ->
              let state' = Actions.apply state act in
              (* every action changes the state: deletions remove a
                 matched atom of [state], insertions add one it lacks *)
              let a = match act with Delete a | Insert a -> a in
              let delta' =
                if Atom.Set.mem a delta then Atom.Set.remove a delta
                else Atom.Set.add a delta
              in
              let touched = Atom.pred a in
              let per_ic' =
                List.map
                  (fun (ic, vs) ->
                    if List.mem touched (Ic.Constr.preds ic) then
                      (ic, Nullsat.violations state' ic)
                    else (ic, vs))
                  per_ic
              in
              explore state' delta' per_ic')
            actions
    end
  in
  explore d Atom.Set.empty (List.map (fun ic -> (ic, Nullsat.violations d ic)) ics);
  List.rev !consistent

let consistent_states ?budget ?max_states d ics = search ?budget ?max_states d ics

(* ------------------------------------------------------------------ *)
(* Conflict-component decomposition (see Decompose) *)

type decomposed = {
  plan : Decompose.plan;
  minimal : Instance.t list list;
  states : Instance.t list list;
  explored : int list;
  exhausted : Budget.exhausted option;
}

let decomposed ?budget ?max_states ?(jobs = 1) d ics =
  let plan = Decompose.plan ?budget d ics in
  let component_base (c : Decompose.component) =
    Instance.union c.Decompose.sub c.Decompose.support
  in
  (* One component's search, with the expected exceptions boxed into a
     result — on a worker domain nothing may escape the task. *)
  let solve_one (c : Decompose.component) =
    let base = component_base c in
    let counter = ref 0 in
    match
      search ?budget ?max_states ~universe:plan.Decompose.universe
        ~nnc_positions:plan.Decompose.nnc_positions ~explored:counter base
        c.Decompose.ics
    with
    | states ->
        (match budget with
        | Some b -> Budget.note_worker_component b
        | None -> ());
        (* Minimality is component-local: the symmetric differences of
           two recombined repairs split by component, so filtering each
           component's states against its own base replaces the cross
           product's quadratic filter by per-component ones. *)
        Ok (Order.minimal_among ~d:base states, states, !counter)
    | exception Budget_exceeded n -> Error (Budget.States n)
    | exception Budget.Exhausted e -> Error e
  in
  (* On exhaustion the longest fully-solved prefix (in plan order) is kept
     and the remaining components degrade to their unrepaired base slice —
     graceful degradation instead of discarding the work, with the
     [exhausted] marker making the partiality explicit.  The prefix rule is
     what makes the parallel path deterministic: the merge scans results in
     plan order, exactly like the sequential traversal, so which worker
     failed first never shows. *)
  let merge results components =
    let rec scan acc = function
      | [] -> (List.rev acc, None)
      | (Ok r, _) :: rest ->
          (match budget with Some b -> Budget.note_component b | None -> ());
          scan (r :: acc) rest
      | (Error e, _) :: _ as remaining ->
          let filler =
            List.map
              (fun (_, c) ->
                let base = component_base c in
                ([ base ], [ base ], 0))
              remaining
          in
          (List.rev_append acc filler, Some e)
    in
    scan [] (List.combine results components)
  in
  let components = plan.Decompose.components in
  let solved, exhausted =
    if jobs <= 1 || List.length components <= 1 then
      (* sequential path: solve in plan order, stop at the first trip (the
         remaining components are never searched — no budget is spent past
         the exhaustion point, exactly the historical behavior) *)
      let rec seq acc = function
        | [] -> merge (List.rev acc) components
        | c :: rest -> (
            match solve_one c with
            | Ok _ as r -> seq (r :: acc) rest
            | Error _ as r ->
                merge (List.rev_append acc (r :: List.map (fun _ -> r) rest))
                  components)
      in
      seq [] components
    else
      let results =
        Parallel.Pool.with_pool ~jobs
          ~init:(fun w -> Budget.set_worker_slot (w + 1))
          (fun pool -> Parallel.Pool.map pool solve_one components)
      in
      merge results components
  in
  {
    plan;
    minimal = List.map (fun (m, _, _) -> m) solved;
    states = List.map (fun (_, s, _) -> s) solved;
    explored = List.map (fun (_, _, e) -> e) solved;
    exhausted;
  }

let repairs ?budget ?max_states ?(decompose = false) ?(jobs = 1) d ics =
  if not decompose then
    Order.minimal_among ~d (search ?budget ?max_states d ics)
  else
    let r = decomposed ?budget ?max_states ~jobs d ics in
    (* [repairs] promises the full repair set, so a partial decomposition
       cannot be returned here — re-raise and let the result-returning
       engines (Cqa, Engine) do the graceful degradation. *)
    (match r.exhausted with
    | Some (Budget.States n) -> raise (Budget_exceeded n)
    | Some e -> raise (Budget.Exhausted e)
    | None -> ());
    match r.plan.Decompose.components with
    | [] -> [ d ]
    | _ ->
        if r.plan.Decompose.product_exact then
          List.of_seq (Decompose.product r.plan.Decompose.core r.minimal)
        else
          (* Cross-component covering could beat a product of locally
             minimal repairs (or keep a locally non-minimal component in a
             global repair), so recombine the consistent states and filter
             globally — still cheaper than the monolithic search, which
             explores the product state space instead of recombining it. *)
          Order.minimal_among ~d
            (List.of_seq (Decompose.product r.plan.Decompose.core r.states))
