module Value = Relational.Value
module Instance = Relational.Instance

type violation = {
  ic : Ic.Constr.t;
  theta : Assign.t;
  matched : Relational.Atom.t list;
}

let pp_violation ppf v =
  Fmt.pf ppf "@[<h>%s violated by %a under %a@]" (Ic.Constr.label v.ic)
    Fmt.(list ~sep:(any ", ") Relational.Atom.pp)
    v.matched Assign.pp v.theta

let phi_holds g theta =
  let lookup x = Assign.lookup_exn theta x in
  List.exists (Ic.Builtin.eval lookup) g.Ic.Constr.phi

let consequent_holds d g theta =
  List.exists (fun atom -> Assign.exists_match d theta atom) g.Ic.Constr.cons
  || phi_holds g theta

let null_escapes g =
  let relevant = Ic.Relevant.relevant_universal_vars g in
  fun theta ->
    List.exists
      (fun x ->
        match Assign.find theta x with
        | Some v -> Value.is_null v
        | None -> false)
      relevant

(* Generic constraint: a total antecedent match violates unless a relevant
   universal variable is bound to null (the IsNull disjuncts of formula (4))
   or the consequent holds.  Consequent existence tests are prepared once
   per call so that repeated checks probe a hash index instead of scanning
   the relation (Assign.prepared_exists).  The antecedent join is consumed
   as it is produced, so callers that only want the first witness
   (consistency checks, admission checks) abort after one match instead of
   materializing every violation. *)
let iter_generic_violations d g ic ~f =
  let null_escape = null_escapes g in
  let universal = Ic.Constr.universal_vars g in
  let checkers =
    List.map (Assign.prepared_exists d ~bound:universal) g.Ic.Constr.cons
  in
  let fast_consequent theta =
    List.exists (fun check -> check theta) checkers || phi_holds g theta
  in
  Assign.iter_join_with_witness d Assign.empty g.Ic.Constr.ante
    ~f:(fun theta witness ->
      if not (null_escape theta || fast_consequent theta) then
        f { ic; theta; matched = witness })

let generic_violations d g ic =
  let acc = ref [] in
  iter_generic_violations d g ic ~f:(fun v -> acc := v :: !acc);
  List.rev !acc

(* NNC offenders are exactly the posting list of [null] at the constrained
   column — one index probe instead of a relation scan.  The accumulator is
   consed over the ascending probe, preserving the historical (descending)
   report order of the set-fold implementation. *)
let nnc_violations (n : (string * int * int)) ic d =
  let pred, _arity, pos = n in
  let acc = ref [] in
  Instance.iter_matching d pred ~pos:(pos - 1) Value.null (fun t ->
      acc :=
        { ic; theta = Assign.empty; matched = [ Relational.Atom.of_tuple pred t ] }
        :: !acc);
  !acc

let violations d ic =
  match ic with
  | Ic.Constr.Generic g -> generic_violations d g ic
  | Ic.Constr.NotNull n -> nnc_violations (n.pred, n.arity, n.pos) ic d

(* Early-exit path: stop at the first witness instead of materializing the
   full violation list.  [first_violation_of] returns the same violation
   [violations] would list first. *)
let first_violation_of d ic =
  match ic with
  | Ic.Constr.Generic g ->
      let exception Witness of violation in
      (try
         iter_generic_violations d g ic ~f:(fun v -> raise (Witness v));
         None
       with Witness v -> Some v)
  | Ic.Constr.NotNull n ->
      let pred, pos = (n.pred, n.pos) in
      let exception Witness of Relational.Tuple.t in
      (try
         Instance.iter_matching d pred ~pos:(pos - 1) Value.null (fun t ->
             raise (Witness t));
         None
       with Witness t ->
         Some
           {
             ic;
             theta = Assign.empty;
             matched = [ Relational.Atom.of_tuple pred t ];
           })

let has_violation d ic = Option.is_some (first_violation_of d ic)
let satisfies d ic = not (has_violation d ic)

let check d ics = List.concat_map (violations d) ics
let consistent d ics = List.for_all (satisfies d) ics

(* ------------------------------------------------------------------ *)
(* Literal Definition 4: project, then evaluate psi_N on the projection. *)

let satisfies_literal d ic =
  match ic with
  | Ic.Constr.NotNull _ -> satisfies d ic
  | Ic.Constr.Generic g ->
      let da = Ic.Relevant.project_instance ic d in
      let ante_p = List.map (Ic.Relevant.project_atom ic) g.Ic.Constr.ante in
      let cons_p = List.map (Ic.Relevant.project_atom ic) g.Ic.Constr.cons in
      let relevant = Ic.Relevant.relevant_universal_vars g in
      let matches = Assign.join da Assign.empty ante_p in
      List.for_all
        (fun theta ->
          let null_escape =
            List.exists
              (fun x ->
                match Assign.find theta x with
                | Some v -> Value.is_null v
                | None -> false)
              relevant
          in
          null_escape
          || List.exists (fun atom -> Assign.exists_match da theta atom) cons_p
          || phi_holds g theta)
        matches

(* ------------------------------------------------------------------ *)
(* Canonical violation order *)

let compare_violation a b =
  (* matched is in antecedent order, so (ic, matched) determines theta *)
  match Ic.Constr.compare a.ic b.ic with
  | 0 -> List.compare Relational.Atom.compare a.matched b.matched
  | c -> c

let canonical_violations vs = List.sort_uniq compare_violation vs

(* ------------------------------------------------------------------ *)
(* Admission checking *)

(* Seeded joins.  The incremental paths never enumerate a constraint's
   whole antecedent join; they start it from the bindings one ground atom
   forces, and the index probes of [Assign] then restrict every other
   antecedent atom to those bindings.

   - [iter_ante_seeded]: matches that use the atom in the antecedent.  For
     each antecedent position whose predicate matches, unify the atom
     against it and run the join from the resulting partial assignment.
   - [iter_cons_seeded]: matches whose consequent the atom could witness.
     Unifying the atom against a consequent atom and restricting to the
     constraint's universal variables yields exactly the bindings the
     witness can serve (existential positions are free); the antecedent
     join runs from that restriction.  The atom need not be present.

   The same match can be reached from several seed positions, so callers
   deduplicate (or, like the planner, are idempotent). *)
let iter_ante_seeded d g atom ~f =
  let pred = Relational.Atom.pred atom in
  let args = Relational.Atom.args atom in
  (* the seeded position is matched by the atom itself, so only the other
     antecedent atoms are joined — on a relation without a segment index
     that saves a scan per seed *)
  let rec insert_at i xs =
    if i = 0 then atom :: xs
    else match xs with x :: rest -> x :: insert_at (i - 1) rest | [] -> [ atom ]
  in
  if Instance.mem atom d then
    List.iteri
      (fun i ante_atom ->
        if String.equal (Ic.Patom.pred ante_atom) pred then
          match Assign.match_tuple Assign.empty (Ic.Patom.terms ante_atom) args with
          | None -> ()
          | Some seed ->
              Assign.iter_join_with_witness d seed
                (List.filteri (fun j _ -> j <> i) g.Ic.Constr.ante)
                ~f:(fun theta witness -> f theta (insert_at i witness)))
      g.Ic.Constr.ante

let iter_cons_seeded d g atom ~f =
  let pred = Relational.Atom.pred atom in
  let args = Relational.Atom.args atom in
  let universal = Ic.Constr.universal_vars g in
  List.iter
    (fun cons_atom ->
      if String.equal (Ic.Patom.pred cons_atom) pred then
        match Assign.match_tuple Assign.empty (Ic.Patom.terms cons_atom) args with
        | None -> ()
        | Some theta0 ->
            Assign.iter_join_with_witness d
              (Assign.restrict theta0 universal)
              g.Ic.Constr.ante ~f)
    g.Ic.Constr.cons

(* Violations of a generic constraint that involve one given ground atom:
   the antecedent-seeded matches that pass the violation test. *)
let iter_seeded_violations d g ic atom ~f =
  let universal = Ic.Constr.universal_vars g in
  let checkers =
    List.map (Assign.prepared_exists d ~bound:universal) g.Ic.Constr.cons
  in
  let fast_consequent theta =
    List.exists (fun check -> check theta) checkers || phi_holds g theta
  in
  let null_escape = null_escapes g in
  iter_ante_seeded d g atom ~f:(fun theta witness ->
      if not (null_escape theta || fast_consequent theta) then
        f { ic; theta; matched = witness })

(* One seeded pass per relevant constraint, instead of materializing every
   violation of every constraint and filtering afterwards.  Constraints
   that do not mention the atom's predicate in their antecedent cannot
   match it and are skipped outright; for NNCs the answer is a direct
   probe of the atom itself.  The result is canonical (sorted,
   deduplicated). *)
let violations_involving d ics atom =
  let pred = Relational.Atom.pred atom in
  let acc = ref [] in
  List.iter
    (fun ic ->
      if List.mem pred (Ic.Constr.preds ic) then
        match ic with
        | Ic.Constr.Generic g ->
            iter_seeded_violations d g ic atom ~f:(fun v -> acc := v :: !acc)
        | Ic.Constr.NotNull n ->
            if
              String.equal n.pred pred
              && Relational.Atom.arity atom = n.arity
              && Value.is_null (Relational.Atom.args atom).(n.pos - 1)
              && Instance.mem atom d
            then acc := { ic; theta = Assign.empty; matched = [ atom ] } :: !acc)
    ics;
  canonical_violations !acc

(* ------------------------------------------------------------------ *)
(* Incremental maintenance.

   The violation set of a constraint is a function of the tuples of the
   predicates it mentions alone, so an update batch leaves every
   constraint whose relations are untouched with exactly its previous
   violations.  Touched constraints split further: when the delta stays
   out of a generic constraint's consequent, insertions can only create
   violations (every new antecedent match uses a new tuple, and none of
   its witnesses changed) and deletions can only remove them — one
   seeded [violations_involving] probe per inserted atom plus a filter
   over the previous violations replaces the full join.

   A constraint whose consequent predicates are touched used to be
   re-evaluated from scratch; it is now maintained by probes seeded on the
   delta's atoms:

   - a previous violation survives unless a matched atom was deleted or an
     inserted tuple now witnesses its consequent (one prepared probe per
     kept violation);
   - an inserted antecedent atom contributes its seeded violations as in
     the fast tier;
   - a deleted atom matching a consequent pattern may orphan antecedent
     matches it was the last witness of.  Unifying the deleted tuple
     against the consequent atom and restricting to the constraint's
     universal variables yields exactly the bindings the lost witness
     could have served; the antecedent join seeded with that restriction
     re-derives every such match, and the standard violation test (on the
     new instance) filters the ones that still have another witness.

   Completeness: a violation of the new instance either reuses only old
   tuples — then it was either already a violation (kept) or was silenced
   by a witness that must have been deleted (orphan seed finds it) — or
   matches an inserted tuple (insertion seed finds it).  The result is
   canonicalized, which also collapses seeds rediscovering the same
   match. *)

type delta_stats = { reused : int; fast : int; rescanned : int }

let check_delta ~before ~inserted ~deleted d ics =
  let touched_preds =
    List.sort_uniq String.compare
      (List.map Relational.Atom.pred (inserted @ deleted))
  in
  let reused = ref 0 and fast = ref 0 and rescanned = ref 0 in
  let per_ic ic =
    let preds = Ic.Constr.preds ic in
    if not (List.exists (fun p -> List.mem p touched_preds) preds) then begin
      incr reused;
      List.filter (fun v -> Ic.Constr.equal v.ic ic) before
    end
    else
      match ic with
      | Ic.Constr.NotNull n ->
          (* per-tuple constraint: drop deleted offenders, add inserted
             ones — no other tuple can change its status *)
          incr fast;
          let offender a =
            String.equal (Relational.Atom.pred a) n.pred
            && Relational.Atom.arity a = n.arity
            && Value.is_null (Relational.Atom.args a).(n.pos - 1)
          in
          List.filter
            (fun v ->
              Ic.Constr.equal v.ic ic
              && not (List.exists
                          (fun a ->
                            List.exists (Relational.Atom.equal a) v.matched)
                          deleted))
            before
          @ List.filter_map
              (fun a ->
                if offender a then
                  Some { ic; theta = Assign.empty; matched = [ a ] }
                else None)
              inserted
      | Ic.Constr.Generic g ->
          let cons_touched =
            List.exists
              (fun p -> List.mem p touched_preds)
              (Ic.Constr.cons_preds ic)
          in
          if cons_touched then begin
            incr rescanned;
            let ante_preds = Ic.Constr.ante_preds ic in
            let kept =
              List.filter
                (fun v ->
                  Ic.Constr.equal v.ic ic
                  && (not
                        (List.exists
                           (fun a ->
                             List.exists (Relational.Atom.equal a) v.matched)
                           deleted))
                  && not (consequent_holds d g v.theta))
                before
            in
            let from_inserts =
              List.concat_map
                (fun a ->
                  if List.mem (Relational.Atom.pred a) ante_preds then
                    violations_involving d [ ic ] a
                  else [])
                inserted
            in
            let null_escape = null_escapes g in
            let orphans = ref [] in
            List.iter
              (fun a ->
                iter_cons_seeded d g a ~f:(fun theta witness ->
                    if not (null_escape theta || consequent_holds d g theta)
                    then orphans := { ic; theta; matched = witness } :: !orphans))
              deleted;
            kept @ from_inserts @ !orphans
          end
          else begin
            incr fast;
            let kept =
              List.filter
                (fun v ->
                  Ic.Constr.equal v.ic ic
                  && not
                       (List.exists
                          (fun a ->
                            List.exists (Relational.Atom.equal a) v.matched)
                          deleted))
                before
            in
            let fresh =
              List.concat_map
                (fun a ->
                  if List.mem (Relational.Atom.pred a) preds then
                    violations_involving d [ ic ] a
                  else [])
                inserted
            in
            kept @ fresh
          end
  in
  let result = canonical_violations (List.concat_map per_ic ics) in
  (result, { reused = !reused; fast = !fast; rescanned = !rescanned })

let first_violation d ics =
  List.fold_left
    (fun acc ic ->
      match acc with Some _ -> acc | None -> first_violation_of d ic)
    None ics

let can_insert d ics atom =
  let d' = Instance.add atom d in
  (* only the new tuple can be the source of fresh violations, but it can
     also invalidate nothing — a full recheck is avoided by restricting to
     constraints mentioning the predicate *)
  let relevant_ics =
    List.filter (fun ic -> List.mem (Relational.Atom.pred atom) (Ic.Constr.preds ic)) ics
  in
  match first_violation d' relevant_ics with
  | None -> Ok ()
  | Some v -> Error v

let can_delete d ics atom =
  let d' = Instance.remove atom d in
  let relevant_ics =
    List.filter (fun ic -> List.mem (Relational.Atom.pred atom) (Ic.Constr.preds ic)) ics
  in
  match first_violation d' relevant_ics with
  | None -> Ok ()
  | Some v -> Error v
