module Lru = Lru
module Instance = Relational.Instance
module Nullsat = Semantics.Nullsat
module Decompose = Repair.Decompose

type engine = Enumerate | Program | Auto

(* A cached component solve.  [minimal] are the locally <=_D-minimal
   repairs; [states] carries the full consistent state list for
   [Enumerate] (needed by the inexact-product recombination) and is [None]
   for [Program].  [tier] is the routing verdict for [Auto] entries — a
   cache hit re-counts the tier without re-classifying the component. *)
type entry = {
  minimal : Instance.t list;
  states : Instance.t list option;
  tier : Budget.tier option;
}

(* The concrete per-component strategy.  [Auto] downgrades to the
   enumerate engine when the component product is inexact: per-component
   minimal repairs do not recombine exactly there, so the request needs
   the full consistent state lists for global filtering, which only the
   model-theoretic search yields. *)
type strategy = Senum | Sprog | Sroute

(* ------------------------------------------------------------------ *)
(* The component cache, shareable across sessions.  Entries are tagged
   with the session id that solved them, so a hit on another session's
   entry — the payoff of promoting the cache process-global — is counted
   separately ([cross_hits]).  Fingerprint keys are content-addressed
   (strategy + effort + component digest), so sharing is sound: two
   sessions producing the same key would solve to the same entry.
   Thread-safety comes from {!Lru} (every operation is mutex-guarded) and
   the atomic cross-hit/session counters. *)

module Cache = struct
  type nonrec t = {
    lru : (string, entry * int) Lru.t;
    cross_hits : int Atomic.t;
    sessions : int Atomic.t;  (* sessions ever attached *)
  }

  type stats = {
    hits : int;
    misses : int;
    evictions : int;
    entries : int;
    capacity : int;
    cross_hits : int;
    sessions : int;
  }

  let create ~capacity =
    {
      lru = Lru.create ~capacity;
      cross_hits = Atomic.make 0;
      sessions = Atomic.make 0;
    }

  let attach (t : t) = Atomic.incr t.sessions

  let find (t : t) ~sid key =
    match Lru.find t.lru key with
    | Some (e, owner) ->
        if owner <> sid then Atomic.incr t.cross_hits;
        Some e
    | None -> None

  let add (t : t) ~sid key e = Lru.add t.lru key (e, sid)

  let stats (t : t) =
    {
      hits = Lru.hits t.lru;
      misses = Lru.misses t.lru;
      evictions = Lru.evictions t.lru;
      entries = Lru.length t.lru;
      capacity = Lru.capacity t.lru;
      cross_hits = Atomic.get t.cross_hits;
      sessions = Atomic.get t.sessions;
    }

  let hit_rate (s : stats) =
    let probes = s.hits + s.misses in
    if probes = 0 then 0. else float_of_int s.hits /. float_of_int probes

  let cross_hit_rate (s : stats) =
    if s.hits = 0 then 0.
    else float_of_int s.cross_hits /. float_of_int s.hits

  let pp_stats ppf (s : stats) =
    Fmt.pf ppf
      "@[<h>cache: sessions=%d entries=%d/%d hits=%d misses=%d evictions=%d \
       cross.hits=%d cross.rate=%.2f@]"
      s.sessions s.entries s.capacity s.hits s.misses s.evictions s.cross_hits
      (cross_hit_rate s)
end

(* Session ids are process-global so owner tags stay distinct across every
   cache a session might share. *)
let next_sid = Atomic.make 1

type stats = {
  deltas : int;
  requests : int;
  plan_reuses : int;
  plan_rebuilds : int;
  ics_reused : int;
  ics_fast : int;
  ics_rescanned : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;
  routed : int array;
}

type t = {
  engine : engine;
  jobs : int;
  max_effort : int option;
  ics : Ic.Constr.t list;
  sid : int;  (* owner tag for cache entries *)
  cache : Cache.t;  (* private by default, shared under a server *)
  routed : int array;  (* components per Budget.tier, [Auto] only *)
  mutable d : Instance.t;
  mutable violations : Nullsat.violation list;  (* canonical order *)
  mutable plan : Decompose.plan option;  (* None = must re-plan *)
  mutable deltas : int;
  mutable requests : int;
  mutable plan_reuses : int;
  mutable plan_rebuilds : int;
  mutable ics_reused : int;
  mutable ics_fast : int;
  mutable ics_rescanned : int;
  (* per-session probe counters: with a shared cache the LRU's totals mix
     every session's traffic, but this session's stats line must keep
     describing this session *)
  mutable s_hits : int;
  mutable s_misses : int;
}

let create ?(engine = Program) ?(jobs = 1) ?max_effort ?(capacity = 256)
    ?cache ?violations d ics =
  let cache =
    match cache with Some c -> c | None -> Cache.create ~capacity
  in
  Cache.attach cache;
  {
    engine;
    jobs;
    max_effort;
    ics;
    sid = Atomic.fetch_and_add next_sid 1;
    cache;
    routed = Array.make 4 0;
    d;
    violations =
      (match violations with
      | Some vs -> vs
      | None -> Nullsat.canonical_violations (Nullsat.check d ics));
    plan = None;
    deltas = 0;
    requests = 0;
    plan_reuses = 0;
    plan_rebuilds = 0;
    ics_reused = 0;
    ics_fast = 0;
    ics_rescanned = 0;
    s_hits = 0;
    s_misses = 0;
  }

let cache_find t key =
  match Cache.find t.cache ~sid:t.sid key with
  | Some e ->
      t.s_hits <- t.s_hits + 1;
      Some e
  | None ->
      t.s_misses <- t.s_misses + 1;
      None

let cache_add t key e = Cache.add t.cache ~sid:t.sid key e
let cache t = t.cache

let instance t = t.d
let constraints t = t.ics
let violations t = t.violations
let consistent t = t.violations = []

(* ------------------------------------------------------------------ *)
(* Delta application: incremental violation maintenance, then plan
   refresh.  The plan is dropped (not eagerly recomputed) when refresh
   cannot prove it survives — the next request re-plans under its own
   budget. *)

let apply t ops =
  t.deltas <- t.deltas + 1;
  let d' = Delta.apply ops t.d in
  let inserted, deleted = Delta.net t.d d' in
  match (inserted, deleted) with
  | [], [] -> ()
  | _ ->
      let vs, ds =
        Nullsat.check_delta ~before:t.violations ~inserted ~deleted d' t.ics
      in
      t.ics_reused <- t.ics_reused + ds.Nullsat.reused;
      t.ics_fast <- t.ics_fast + ds.Nullsat.fast;
      t.ics_rescanned <- t.ics_rescanned + ds.Nullsat.rescanned;
      let violations_unchanged =
        List.equal
          (fun a b -> Nullsat.compare_violation a b = 0)
          t.violations vs
      in
      (match t.plan with
      | None -> ()
      | Some p -> (
          match
            Decompose.refresh p d' t.ics ~inserted ~deleted
              ~violations_unchanged
          with
          | Some p' ->
              t.plan_reuses <- t.plan_reuses + 1;
              t.plan <- Some p'
          | None -> t.plan <- None));
      t.d <- d';
      t.violations <- vs

(* ------------------------------------------------------------------ *)
(* Plan and cache plumbing *)

(* Budget exhaustion during planning becomes an [Error], exactly as in the
   cold engines. *)
let with_plan ?budget t f =
  match
    match t.plan with
    | Some p -> p
    | None ->
        let p = Decompose.plan ?budget ~violations:t.violations t.d t.ics in
        t.plan_rebuilds <- t.plan_rebuilds + 1;
        t.plan <- Some p;
        p
  with
  | p -> f p
  | exception Budget.Exhausted e -> Error (Budget.message e)

let effort_tag t =
  match t.max_effort with None -> "-" | Some n -> string_of_int n

let strategy t (plan : Decompose.plan) =
  match t.engine with
  | Enumerate -> Senum
  | Program -> Sprog
  | Auto -> if plan.Decompose.product_exact then Sroute else Senum

let tier_slot = function
  | Budget.Direct -> 0
  | Budget.Shifted -> 1
  | Budget.Disjunctive -> 2
  | Budget.Enumerated -> 3

(* The cache key covers everything a component solve depends on: the
   solve strategy, the effort bound, and the content fingerprint —
   including the plan-global universe and NNC positions for the enumerate
   strategy, whose insertion candidates range over them; the program
   engine regenerates its candidates from the slice, so its entries
   survive universe drift.  [Auto] on an inexact plan IS the enumerate
   strategy, so it shares the [enum:] entries; its routed solves carry
   the universe too — the Enumerated tier searches over it. *)
let component_key t (plan : Decompose.plan) c =
  match strategy t plan with
  | Senum ->
      Printf.sprintf "enum:%s:%s" (effort_tag t)
        (Decompose.fingerprint ~universe:plan.Decompose.universe
           ~nnc_positions:plan.Decompose.nnc_positions c)
  | Sprog -> Printf.sprintf "prog:%s:%s" (effort_tag t) (Decompose.fingerprint c)
  | Sroute ->
      Printf.sprintf "auto:%s:%s" (effort_tag t)
        (Decompose.fingerprint ~universe:plan.Decompose.universe
           ~nnc_positions:plan.Decompose.nnc_positions c)

(* Whole-instance key for the monolithic program-engine fallback
   (inexact product): digest of the instance and the constraint list. *)
let mono_key t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Fmt.str "%a" Instance.pp t.d);
  List.iter
    (fun ic ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf (Ic.Constr.to_string ic))
    t.ics;
  Printf.sprintf "mono:%s:%s" (effort_tag t)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let component_base (c : Decompose.component) =
  Instance.union c.Decompose.sub c.Decompose.support

(* One component solved from scratch — the exact code paths of the cold
   engines ({!Repair.Enumerate.decomposed} / {!Core.Engine.solve_components}
   on a single-component plan), so a cached entry is indistinguishable
   from a cold solve. *)
type solved = Entry of entry | Exhausted of Budget.exhausted | Err of string

let solve_component ?budget t (plan : Decompose.plan) (c : Decompose.component)
    =
  let base = component_base c in
  let enumerate ~tier () =
    let counter = ref 0 in
    match
      Repair.Enumerate.search ?budget ?max_states:t.max_effort
        ~universe:plan.Decompose.universe
        ~nnc_positions:plan.Decompose.nnc_positions ~explored:counter base
        c.Decompose.ics
    with
    | states ->
        (match budget with
        | Some b -> Budget.note_worker_component b
        | None -> ());
        Entry
          {
            minimal = Repair.Order.minimal_among ~d:base states;
            states = Some states;
            tier;
          }
    | exception Repair.Enumerate.Budget_exceeded n ->
        Exhausted (Budget.States n)
    | exception Budget.Exhausted e -> Exhausted e
  in
  let program ~tier () =
    match
      Core.Engine.solve_components ?budget ?max_decisions:t.max_effort
        { plan with Decompose.components = [ c ] }
    with
    | Error msg -> Err msg
    | Ok { Core.Engine.exhausted = Some e; _ } -> Exhausted e
    | Ok { Core.Engine.solved = [ reps ]; _ } ->
        Entry { minimal = reps; states = None; tier }
    | Ok _ -> assert false
  in
  match strategy t plan with
  | Senum -> enumerate ~tier:None ()
  | Sprog -> program ~tier:None ()
  | Sroute -> (
      let v = Route.Tier.component c in
      match v.Route.Tier.tier with
      | Budget.Direct -> (
          match
            Route.Direct.minimal_repairs ?budget
              (Option.get v.Route.Tier.direct)
          with
          | reps ->
              (match budget with
              | Some b -> Budget.note_worker_component b
              | None -> ());
              Entry
                { minimal = reps; states = None; tier = Some Budget.Direct }
          | exception Budget.Exhausted e -> Exhausted e)
      | (Budget.Shifted | Budget.Disjunctive) as tr ->
          program ~tier:(Some tr) ()
      | Budget.Enumerated -> enumerate ~tier:(Some Budget.Enumerated) ())

(* Solve every component of the plan through the cache.  Misses run on the
   pool when [jobs > 1]; the merge scans in plan order and applies the
   cold engines' prefix rule — everything from the first budget trip on
   degrades to its unrepaired base slice, cache hits included, so the
   partial shape matches a cold run's.  Successful solves are cached even
   past the trip point (the work is done; only this request's answer may
   not use it). *)
let solve_all ?budget t (plan : Decompose.plan) =
  let probed =
    List.map
      (fun c ->
        let key = component_key t plan c in
        (c, key, cache_find t key))
      plan.Decompose.components
  in
  let misses = List.filter (fun (_, _, v) -> Option.is_none v) probed in
  let results =
    if t.jobs <= 1 || List.length misses <= 1 then
      (* sequential: solve misses in plan order, stop at the first trip so
         no budget is spent past it (the cold sequential behavior) *)
      let rec seq acc stopped = function
        | [] -> List.rev acc
        | (c, key, cached) :: rest -> (
            match cached with
            | Some e -> seq ((key, c, `Hit e) :: acc) stopped rest
            | None ->
                if stopped then seq ((key, c, `Unsolved) :: acc) stopped rest
                else (
                  match solve_component ?budget t plan c with
                  | Entry e -> seq ((key, c, `Solved e) :: acc) stopped rest
                  | Exhausted ex -> seq ((key, c, `Trip ex) :: acc) true rest
                  | Err m -> seq ((key, c, `Err m) :: acc) true rest))
      in
      seq [] false probed
    else
      let miss_results =
        Parallel.Pool.with_pool ~jobs:t.jobs
          ~init:(fun w -> Budget.set_worker_slot (w + 1))
          (fun pool ->
            Parallel.Pool.map pool
              (fun (c, _, _) -> solve_component ?budget t plan c)
              misses)
      in
      (* reassemble in plan order: hits keep their entry, misses consume
         the pool results in order *)
      let rec assemble acc probed miss_results =
        match probed with
        | [] -> List.rev acc
        | (c, key, Some e) :: rest ->
            assemble ((key, c, `Hit e) :: acc) rest miss_results
        | (c, key, None) :: rest -> (
            match miss_results with
            | r :: mrest ->
                let tag =
                  match r with
                  | Entry e -> `Solved e
                  | Exhausted ex -> `Trip ex
                  | Err m -> `Err m
                in
                assemble ((key, c, tag) :: acc) rest mrest
            | [] -> assert false)
      in
      assemble [] probed miss_results
  in
  let filler c =
    let base = component_base c in
    {
      minimal = [ base ];
      states = (if strategy t plan = Senum then Some [ base ] else None);
      tier = None;
    }
  in
  (* tier accounting happens here on the coordinator, for hits (stored
     verdict — no re-classification) and kept solves alike, so the routed
     counters are deterministic across [jobs] settings *)
  let count_tier (e : entry) =
    match e.tier with
    | Some tr ->
        t.routed.(tier_slot tr) <- t.routed.(tier_slot tr) + 1;
        (match budget with Some b -> Budget.note_route b tr | None -> ())
    | None -> ()
  in
  let rec scan entries completed = function
    | [] -> Ok (List.rev entries, completed, None)
    | (_, _, `Hit e) :: rest ->
        count_tier e;
        scan (e :: entries) (completed + 1) rest
    | (key, _, `Solved e) :: rest ->
        cache_add t key e;
        count_tier e;
        (* the program paths note kept components inside Core.Engine *)
        (match (budget, strategy t plan, e.tier) with
        | Some b, Senum, _ -> Budget.note_component b
        | Some b, Sroute, Some (Budget.Direct | Budget.Enumerated) ->
            Budget.note_component b
        | _ -> ());
        scan (e :: entries) (completed + 1) rest
    | (_, _, `Err m) :: _ -> Error m
    | (_, _, (`Trip ex)) :: _ as remaining ->
        let degraded =
          List.map
            (fun (key, c, r) ->
              (match r with `Solved e -> cache_add t key e | _ -> ());
              filler c)
            remaining
        in
        Ok (List.rev_append entries degraded, completed, Some ex)
    | (_, _, `Unsolved) :: _ ->
        (* only reachable after a trip, which the [`Trip] arm consumed *)
        assert false
  in
  scan [] 0 results

(* ------------------------------------------------------------------ *)
(* Requests *)

let monolithic_repairs ?budget t =
  let key = mono_key t in
  match cache_find t key with
  | Some e -> Ok e.minimal
  | None ->
      Result.map
        (fun reps ->
          cache_add t key { minimal = reps; states = None; tier = None };
          reps)
        (Core.Engine.repairs ?budget ?max_decisions:t.max_effort t.d t.ics)

(* [Auto] on an inexact plan solved by enumeration: record the downgrade
   instead of degrading invisibly. *)
let note_auto_downgrade ?budget t (plan : Decompose.plan) =
  match (budget, t.engine, plan.Decompose.product_exact) with
  | Some b, Auto, false ->
      Budget.note_degraded b ~stage:"session"
        "inexact component product (cross-component null covering): auto \
         engine solved components by enumeration"
  | _ -> ()

let repairs ?budget t =
  t.requests <- t.requests + 1;
  with_plan ?budget t (fun plan ->
      match plan.Decompose.components with
      | [] -> Ok [ t.d ]
      | _ when (not plan.Decompose.product_exact) && strategy t plan = Sprog
        ->
          monolithic_repairs ?budget t
      | _ ->
          note_auto_downgrade ?budget t plan;
          Result.bind (solve_all ?budget t plan)
            (fun (entries, _completed, exhausted) ->
              match exhausted with
              | Some e ->
                  (* like the cold engines, the full repair set cannot
                     degrade gracefully *)
                  Error (Budget.message e)
              | None ->
                  let minimal = List.map (fun e -> e.minimal) entries in
                  if plan.Decompose.product_exact then
                    Ok
                      (List.of_seq
                         (Decompose.product plan.Decompose.core minimal))
                  else
                    (* Enumerate with a possible cross-component covering:
                       recombine the states and filter globally *)
                    let states =
                      List.map (fun e -> Option.get e.states) entries
                    in
                    Ok
                      (Repair.Order.minimal_among ~d:t.d
                         (List.of_seq
                            (Decompose.product plan.Decompose.core states)))))

let cqa ?budget ?semantics t q =
  t.requests <- t.requests + 1;
  let standard = Query.Qeval.answers ?semantics t.d q in
  with_plan ?budget t (fun plan ->
      match plan.Decompose.components with
      | [] ->
          Ok
            {
              Query.Cqa.consistent = standard;
              possible = standard;
              standard;
              repair_count = 1;
              exhausted = None;
            }
      | _ when (not plan.Decompose.product_exact) && strategy t plan = Sprog
        ->
          Result.map
            (Query.Cqa.outcome_of_repairs ?semantics ~standard q)
            (monolithic_repairs ?budget t)
      | _ ->
          note_auto_downgrade ?budget t plan;
          Result.bind (solve_all ?budget t plan)
            (fun (entries, completed, exhausted) ->
              match exhausted with
              | Some e when completed = 0 -> Error (Budget.message e)
              | _ ->
                  let minimal = List.map (fun e -> e.minimal) entries in
                  let states =
                    match strategy t plan with
                    | Senum ->
                        Some (List.map (fun e -> Option.get e.states) entries)
                    | Sprog | Sroute -> None
                  in
                  Ok
                    (Query.Cqa.factorized_outcome ?semantics ~jobs:t.jobs
                       ?states ?exhausted ~plan ~minimal ~standard q)))

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let stats t =
  {
    deltas = t.deltas;
    requests = t.requests;
    plan_reuses = t.plan_reuses;
    plan_rebuilds = t.plan_rebuilds;
    ics_reused = t.ics_reused;
    ics_fast = t.ics_fast;
    ics_rescanned = t.ics_rescanned;
    cache_hits = t.s_hits;
    cache_misses = t.s_misses;
    cache_evictions = (Cache.stats t.cache).Cache.evictions;
    cache_entries = (Cache.stats t.cache).Cache.entries;
    routed = Array.copy t.routed;
  }

let hit_rate (s : stats) =
  let probes = s.cache_hits + s.cache_misses in
  if probes = 0 then 0. else float_of_int s.cache_hits /. float_of_int probes

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "@[<h>session: deltas=%d requests=%d plan.reused=%d plan.rebuilt=%d \
     ics.reused=%d ics.fast=%d ics.rescanned=%d cache.hits=%d \
     cache.misses=%d cache.evictions=%d cache.entries=%d%t@]"
    s.deltas s.requests s.plan_reuses s.plan_rebuilds s.ics_reused s.ics_fast
    s.ics_rescanned s.cache_hits s.cache_misses s.cache_evictions
    s.cache_entries
    (fun ppf ->
      (* the routed segment appears only for the auto engine, so the
         historical stats line is unchanged elsewhere *)
      if Array.exists (fun n -> n > 0) s.routed then
        Fmt.pf ppf
          " routed.direct=%d routed.shifted=%d routed.disjunctive=%d \
           routed.enumerate=%d"
          s.routed.(0) s.routed.(1) s.routed.(2) s.routed.(3))
