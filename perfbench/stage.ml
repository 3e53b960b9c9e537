(* The staged request: the path of [Query.Cqa.consistent_answers
   ~method_:Auto] taken one public layer function at a time, each call in
   its own span, with the layer's counts recorded beside it. *)

module T = Trace

let fail fmt = Printf.ksprintf failwith fmt

(* parse + load, as [Lang.Load.of_string] and [final_instance] do *)
let load tr text =
  let items = T.span_alloc tr "lang.parse" (fun () -> Lang.Parser.parse text) in
  T.span tr "lang.load" (fun () ->
      match Lang.Load.of_items items with
      | Error e -> fail "load: %s" e
      | Ok l -> (l, Lang.Load.final_instance l))

let tier_counter = function
  | Budget.Direct -> "route.direct"
  | Budget.Shifted -> "route.shifted"
  | Budget.Disjunctive -> "route.disjunctive"
  | Budget.Enumerated -> "route.enumerated"

(* One component through its tier's solver, as the Auto method's routed
   solve does. *)
let solve tr budget (plan : Repair.Decompose.plan) (c : Repair.Decompose.component)
    (v : Route.Tier.verdict) =
  T.count tr (tier_counter v.Route.Tier.tier) 1.;
  match v.Route.Tier.tier with
  | Budget.Direct ->
      T.span tr "route.direct_solve" (fun () ->
          Route.Direct.minimal_repairs ~budget (Option.get v.Route.Tier.direct))
  | Budget.Shifted | Budget.Disjunctive -> (
      T.count tr "core.programs" 1.;
      match
        T.span tr "core.program_solve" (fun () ->
            Core.Engine.solve_components ~budget
              { plan with Repair.Decompose.components = [ c ] })
      with
      | Ok { Core.Engine.solved = [ reps ]; exhausted = None; _ } -> reps
      | Ok _ -> fail "program solve: partial result"
      | Error e -> fail "program solve: %s" e)
  | Budget.Enumerated ->
      T.span tr "repair.enumerate" (fun () ->
          let base = Relational.Instance.union c.Repair.Decompose.sub c.Repair.Decompose.support in
          Repair.Order.minimal_among ~d:base
            (Repair.Enumerate.search ~budget ~universe:plan.Repair.Decompose.universe
               ~nnc_positions:plan.Repair.Decompose.nnc_positions base c.Repair.Decompose.ics))

(* check, plan, route, solve and answer over a loaded instance; returns
   the outcome and the |=_N violations *)
let answer tr d ics q =
  let budget = Budget.start Budget.unlimited in
  let violations = T.span tr "semantics.check" (fun () -> Semantics.Nullsat.check d ics) in
  T.count tr "semantics.violations" (float_of_int (List.length violations));
  let standard = T.span tr "query.standard" (fun () -> Query.Qeval.answers d q) in
  let plan = T.span_alloc tr "repair.plan" (fun () -> Repair.Decompose.plan ~budget d ics) in
  let comps = plan.Repair.Decompose.components in
  T.count tr "repair.components" (float_of_int (List.length comps));
  T.count tr "repair.core_tuples" (float_of_int (Relational.Instance.cardinal plan.Repair.Decompose.core));
  T.count tr "repair.active_atoms"
    (float_of_int
       (List.fold_left
          (fun acc c -> acc + Relational.Atom.Set.cardinal c.Repair.Decompose.atoms)
          0 comps));
  let outcome =
    match comps with
    | [] ->
        {
          Query.Cqa.consistent = standard;
          possible = standard;
          standard;
          repair_count = 1;
          exhausted = None;
        }
    | _ when not plan.Repair.Decompose.product_exact ->
        fail "inexact component product: the generators never build one"
    | _ ->
        let verdicts = T.span tr "route.classify" (fun () -> Route.Tier.plan plan) in
        let minimal = List.map2 (solve tr budget plan) comps verdicts in
        T.span_alloc tr "query.answer" (fun () ->
            Query.Cqa.factorized_outcome ~plan ~minimal ~standard q)
  in
  let st = Budget.stats budget in
  List.iter
    (fun (name, a) -> T.count tr name (float_of_int (Atomic.get a)))
    [
      ("asp.decisions", st.Budget.decisions);
      ("asp.conflicts", st.Budget.conflicts);
      ("asp.learned", st.Budget.learned);
      ("asp.restarts", st.Budget.restarts);
      ("repair.states", st.Budget.states);
    ];
  (outcome, violations)

let query (l : Lang.Load.loaded) name =
  match List.assoc_opt name l.Lang.Load.queries with
  | Some q -> q
  | None -> fail "no query %s" name

(* The whole staged request from text. *)
let request tr text qname =
  let l, d = load tr text in
  let outcome, violations = answer tr d l.Lang.Load.ics (query l qname) in
  (l, outcome, violations)

(* The untraced request: the path of `cqanull cqa`. *)
let plain text qname =
  match Lang.Load.of_string text with
  | Error e -> Error e
  | Ok l -> (
      match List.assoc_opt qname l.Lang.Load.queries with
      | None -> Error ("no query " ^ qname)
      | Some q ->
          Query.Cqa.consistent_answers ~method_:Query.Cqa.Auto (Lang.Load.final_instance l)
            l.Lang.Load.ics q)

(* Session-layer counts of a finished replay. *)
let session_counts tr (s : Session.stats) =
  T.count tr "session.plan_reuses" (float_of_int s.Session.plan_reuses);
  T.count tr "session.plan_rebuilds" (float_of_int s.Session.plan_rebuilds);
  T.count tr "session.ics_rescanned" (float_of_int s.Session.ics_rescanned);
  T.count tr "session.cache_hits" (float_of_int s.Session.cache_hits);
  T.count tr "session.cache_misses" (float_of_int s.Session.cache_misses)
