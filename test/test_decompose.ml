(* Tests for the conflict-component decomposition (Repair.Decompose): the
   plan itself, the decomposed enumerator and engines against their
   monolithic counterparts, and the differential qcheck suites. *)

module Value = Relational.Value
module Atom = Relational.Atom
module Instance = Relational.Instance
module Tuple = Relational.Tuple
module Term = Ic.Term
module Patom = Ic.Patom
module Constr = Ic.Constr
module Decompose = Repair.Decompose
module Enumerate = Repair.Enumerate
module Gen = Workload.Gen
module Qsyntax = Query.Qsyntax

let v = Term.var
let atom p ts = Patom.make p ts
let vn = Value.null
let vs = Value.str

let instance = Alcotest.testable Instance.pp_inline Instance.equal

let check_repair_set name expected actual =
  let sort = List.sort Instance.compare in
  Alcotest.(check (list instance)) name (sort expected) (sort actual)

let same_repairs name d ics =
  check_repair_set name (Enumerate.repairs d ics)
    (Enumerate.repairs ~decompose:true d ics)

(* ------------------------------------------------------------------ *)
(* Fixtures from test_repair.ml (Examples 15-20) *)

let ex15_d =
  Instance.of_list
    [
      ("Course", [ Value.int 21; vs "C15" ]);
      ("Course", [ Value.int 34; vs "C18" ]);
      ("Student", [ Value.int 21; vs "Ann" ]);
      ("Student", [ Value.int 45; vs "Paul" ]);
    ]

let ex15_ric =
  Constr.generic
    ~ante:[ atom "Course" [ v "id"; v "code" ] ]
    ~cons:[ atom "Student" [ v "id"; v "name" ] ]
    ()

let ex18_d =
  Instance.of_list [ ("P", [ vs "a"; vs "b" ]); ("P", [ vn; vs "a" ]); ("T", [ vs "c" ]) ]

let ex18_ics =
  [
    Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "T" [ v "x" ] ] ();
    Constr.generic ~ante:[ atom "T" [ v "x" ] ] ~cons:[ atom "P" [ v "y"; v "x" ] ] ();
  ]

let ex19_d =
  Instance.of_list
    [
      ("R", [ vs "a"; vs "b" ]);
      ("R", [ vs "a"; vs "c" ]);
      ("S", [ vs "e"; vs "f" ]);
      ("S", [ vn; vs "a" ]);
    ]

let ex19_ics =
  Ic.Builder.key ~pred:"R" ~arity:2 ~key:[ 1 ] ()
  @ [
      Ic.Builder.foreign_key ~child:"S" ~child_arity:2 ~child_cols:[ 2 ]
        ~parent:"R" ~parent_arity:2 ~parent_cols:[ 1 ] ();
      Constr.not_null ~pred:"R" ~arity:2 ~pos:1 ();
    ]

let ex20_d =
  Instance.of_list [ ("P", [ vs "a" ]); ("P", [ vs "b" ]); ("Q", [ vs "b"; vs "c" ]) ]

let ex20_ics =
  [
    Constr.generic ~ante:[ atom "P" [ v "x" ] ] ~cons:[ atom "Q" [ v "x"; v "y" ] ] ();
    Constr.not_null ~pred:"Q" ~arity:2 ~pos:2 ();
  ]

(* ------------------------------------------------------------------ *)
(* The plan *)

let test_plan_consistent () =
  let d = Instance.of_list [ ("Course", [ Value.int 21; vs "C15" ]); ("Student", [ Value.int 21; vs "Ann" ]) ] in
  let plan = Decompose.plan d [ ex15_ric ] in
  Alcotest.(check int) "no components" 0 (List.length plan.Decompose.components);
  Alcotest.(check bool) "core = D" true (Instance.equal plan.Decompose.core d)

let test_plan_clusters () =
  let w = Gen.clusters_workload ~padding:2 ~k:4 () in
  let plan = Decompose.plan w.Gen.d w.Gen.ics in
  Alcotest.(check int) "4 components" 4 (List.length plan.Decompose.components);
  Alcotest.(check bool) "product exact" true plan.Decompose.product_exact;
  (* the padded triples are untouched *)
  Alcotest.(check int) "core holds the padding" 6 (Instance.cardinal plan.Decompose.core);
  List.iter
    (fun (c : Decompose.component) ->
      Alcotest.(check int) "one original tuple per component" 1
        (Instance.cardinal c.Decompose.sub);
      Alcotest.(check int) "both constraints touch each component" 2
        (List.length c.Decompose.ics))
    plan.Decompose.components

let test_plan_support_atoms () =
  (* P(a) violates the RIC, and the UIC P(x) -> Q(x) is permanently
     satisfied by the core witness Q(a): the component search must carry
     Q(a) along or it would see a spurious violation. *)
  let d = Instance.of_list [ ("P", [ vs "a" ]); ("Q", [ vs "a" ]) ] in
  let ics =
    [
      Constr.generic ~name:"ric" ~ante:[ atom "P" [ v "x" ] ]
        ~cons:[ atom "R" [ v "x"; v "y" ] ]
        ();
      Constr.generic ~name:"uic" ~ante:[ atom "P" [ v "x" ] ]
        ~cons:[ atom "Q" [ v "x" ] ]
        ();
    ]
  in
  let plan = Decompose.plan d ics in
  Alcotest.(check int) "one component" 1 (List.length plan.Decompose.components);
  let c = List.hd plan.Decompose.components in
  Alcotest.(check bool) "Q(a) is support" true
    (Instance.mem (Atom.make "Q" [ vs "a" ]) c.Decompose.support);
  same_repairs "support keeps the repairs equal" d ics

let test_plan_late_witness () =
  (* P(a) fires first with the candidate Q(a, null); the cascade
     S(a) -> R(a) -> Q(a, a) later inserts a second witness of P(a)'s
     consequent, which must join both classes into one component *)
  let d = Instance.of_list [ ("P", [ vs "a" ]); ("S", [ vs "a" ]) ] in
  let ric p ps q qs = Constr.generic ~ante:[ atom p ps ] ~cons:[ atom q qs ] () in
  let ics =
    [
      ric "P" [ v "x" ] "Q" [ v "x"; v "y" ];
      ric "S" [ v "x" ] "R" [ v "x" ];
      ric "R" [ v "x" ] "Q" [ v "x"; v "x" ];
    ]
  in
  let plan = Decompose.plan d ics in
  Alcotest.(check int) "one component" 1 (List.length plan.Decompose.components);
  same_repairs "late witness decomposed" d ics

let test_components_share_universe () =
  (* conflicting NNC (Example 20): insertions range over the universe of
     the whole instance, even from a component that does not mention every
     constant *)
  let plan = Decompose.plan ex20_d ex20_ics in
  same_repairs "Example 20 decomposed" ex20_d ex20_ics;
  Alcotest.(check bool) "universe covers c" true
    (List.mem (vs "c") plan.Decompose.universe)

(* ------------------------------------------------------------------ *)
(* Decomposed enumeration = monolithic on the paper's examples *)

let test_examples_differential () =
  same_repairs "Example 15" ex15_d [ ex15_ric ];
  same_repairs "Example 18 (RIC-cyclic)" ex18_d ex18_ics;
  same_repairs "Example 19 (key+FK+NNC)" ex19_d ex19_ics;
  same_repairs "Example 20 (conflicting NNC)" ex20_d ex20_ics

let test_clusters_differential () =
  let w = Gen.clusters_workload ~padding:1 ~k:3 () in
  same_repairs "3 clusters" w.Gen.d w.Gen.ics;
  let reps = Enumerate.repairs ~decompose:true w.Gen.d w.Gen.ics in
  Alcotest.(check int) "2^3 repairs" 8 (List.length reps)

let test_exploration_collapses () =
  (* the headline claim: k independent clusters cost the sum, not the
     product, of the per-cluster searches *)
  let w = Gen.clusters_workload ~k:4 () in
  let monolithic = ref 0 in
  ignore (Enumerate.search ~explored:monolithic w.Gen.d w.Gen.ics);
  let r = Enumerate.decomposed w.Gen.d w.Gen.ics in
  let decomposed = List.fold_left ( + ) 0 r.Enumerate.explored in
  Alcotest.(check bool)
    (Printf.sprintf "decomposed %d states <= monolithic %d / 5" decomposed !monolithic)
    true
    (decomposed * 5 <= !monolithic);
  Alcotest.(check int) "repair count factorizes" 16
    (Decompose.count_product (List.map List.length r.Enumerate.minimal))

(* ------------------------------------------------------------------ *)
(* Engine and CQA wiring *)

let test_engine_decomposed () =
  let w = Gen.clusters_workload ~k:3 () in
  let mono = Core.Engine.repairs w.Gen.d w.Gen.ics in
  let dec = Core.Engine.repairs ~decompose:true w.Gen.d w.Gen.ics in
  match (mono, dec) with
  | Ok m, Ok d -> check_repair_set "engine decomposed = monolithic" m d
  | _ -> Alcotest.fail "engine failed"

let q_single = Qsyntax.make ~head:[ "x" ] (Qsyntax.Atom (atom "S" [ v "x" ]))

let q_join =
  Qsyntax.make ~head:[ "x" ]
    (Qsyntax.And (Qsyntax.Atom (atom "R" [ v "x"; v "y" ]), Qsyntax.Atom (atom "T" [ v "x" ])))

let q_negated =
  Qsyntax.make ~head:[ "x" ]
    (Qsyntax.And (Qsyntax.Atom (atom "S" [ v "x" ]), Qsyntax.Not (Qsyntax.Atom (atom "T" [ v "x" ]))))

let check_same_outcome name d ics q =
  let tset = Alcotest.testable (Fmt.any "tuple-set") Tuple.Set.equal in
  match
    ( Query.Cqa.consistent_answers ~method_:Query.Cqa.ModelTheoretic d ics q,
      Query.Cqa.consistent_answers ~method_:Query.Cqa.ModelTheoretic
        ~decompose:true d ics q )
  with
  | Ok mono, Ok dec ->
      Alcotest.check tset (name ^ ": consistent") mono.Query.Cqa.consistent
        dec.Query.Cqa.consistent;
      Alcotest.check tset (name ^ ": possible") mono.Query.Cqa.possible
        dec.Query.Cqa.possible;
      Alcotest.(check int)
        (name ^ ": repair_count")
        mono.Query.Cqa.repair_count dec.Query.Cqa.repair_count
  | _ -> Alcotest.fail (name ^ ": CQA failed")

let test_cqa_decomposed () =
  let w = Gen.clusters_workload ~padding:1 ~k:3 () in
  check_same_outcome "single-atom" w.Gen.d w.Gen.ics q_single;
  check_same_outcome "join" w.Gen.d w.Gen.ics q_join;
  check_same_outcome "negated (fallback)" w.Gen.d w.Gen.ics q_negated

(* ------------------------------------------------------------------ *)
(* Differential qcheck suites over random schemas *)

let sorted_repairs ?max_states ~decompose d ics =
  List.sort Instance.compare (Enumerate.repairs ?max_states ~decompose d ics)

let diff_repairs_test =
  QCheck.Test.make ~name:"decomposed repairs = monolithic (500 random cases)"
    ~count:500
    QCheck.(int_bound 1_000_000) (fun seed ->
      let w = Gen.random_case ~seed () in
      match
        ( sorted_repairs ~max_states:50_000 ~decompose:false w.Gen.d w.Gen.ics,
          sorted_repairs ~max_states:50_000 ~decompose:true w.Gen.d w.Gen.ics )
      with
      | mono, dec ->
          if List.length mono <> List.length dec || not (List.for_all2 Instance.equal mono dec)
          then
            QCheck.Test.fail_reportf "repairs differ on %s:@.mono %a@.dec %a"
              w.Gen.label
              Fmt.(list ~sep:(any " | ") Instance.pp_inline)
              mono
              Fmt.(list ~sep:(any " | ") Instance.pp_inline)
              dec
          else true
      | exception Enumerate.Budget_exceeded _ -> true)

let diff_cqa_test =
  QCheck.Test.make ~name:"decomposed CQA = monolithic (200 random cases)"
    ~count:200
    QCheck.(int_bound 1_000_000) (fun seed ->
      let w = Gen.random_case ~seed () in
      List.for_all
        (fun q ->
          match
            ( Query.Cqa.consistent_answers ~method_:Query.Cqa.ModelTheoretic
                ~max_effort:50_000 w.Gen.d w.Gen.ics q,
              Query.Cqa.consistent_answers ~method_:Query.Cqa.ModelTheoretic
                ~max_effort:50_000 ~decompose:true w.Gen.d w.Gen.ics q )
          with
          | Ok _, Ok dec when dec.Query.Cqa.exhausted <> None ->
              (* the decomposed run degraded gracefully under the budget:
                 its partial answers need not match the monolithic ones *)
              true
          | Ok mono, Ok dec ->
              Tuple.Set.equal mono.Query.Cqa.consistent dec.Query.Cqa.consistent
              && Tuple.Set.equal mono.Query.Cqa.possible dec.Query.Cqa.possible
              && mono.Query.Cqa.repair_count = dec.Query.Cqa.repair_count
          | Error _, (Error _ | Ok _) -> true
          | _ -> false)
        [
          Qsyntax.make ~head:[ "x" ] (Qsyntax.Atom (atom "P" [ v "x" ]));
          Qsyntax.make ~head:[ "x" ]
            (Qsyntax.And
               ( Qsyntax.Atom (atom "R" [ v "x"; v "y" ]),
                 Qsyntax.Atom (atom "S" [ v "x" ]) ));
          Qsyntax.make ~head:[ "x" ]
            (Qsyntax.And
               ( Qsyntax.Atom (atom "P" [ v "x" ]),
                 Qsyntax.Not (Qsyntax.Atom (atom "Q" [ v "x" ])) ));
        ])

(* ------------------------------------------------------------------ *)
(* The plan against the naive fixpoint.

   [Decompose.plan] closes the conflict graph with worklists seeded on
   each newly activated (then each new support) atom.  The oracle below
   is the plain fixpoint it replaced: rescan every potential violation of
   the extended instance, round after round, until nothing changes; the
   same for support; then [Instance.filter] for the core and a pairwise
   scan for product exactness.  The two must agree on every field. *)

module Oracle = struct
  module Assign = Semantics.Assign
  module Nullsat = Semantics.Nullsat

  let potential g theta =
    let escapes =
      List.exists
        (fun x ->
          match Assign.find theta x with
          | Some v -> Value.is_null v
          | None -> false)
        (Ic.Relevant.relevant_universal_vars g)
    in
    not (escapes || List.exists (Ic.Builtin.eval (Assign.lookup_exn theta)) g.Constr.phi)

  let cons_witnesses d g theta =
    List.concat_map
      (fun c ->
        List.map
          (fun th -> Patom.ground (Assign.lookup_exn th) c)
          (Assign.atom_matches d theta c))
      g.Constr.cons

  let iter_pvs d ics ~f =
    List.iter
      (function
        | Constr.NotNull _ -> ()
        | Constr.Generic g ->
            Assign.iter_join_with_witness d Assign.empty g.Constr.ante
              ~f:(fun theta witness -> if potential g theta then f g theta witness))
      ics

  let plan d ics =
    let universe = Repair.Candidates.universe d ics in
    let nnc_positions = Repair.Actions.nnc_positions_of ics in
    let inserts g theta =
      List.concat_map
        (Repair.Actions.insertions ~universe ~nnc_positions theta)
        g.Constr.cons
    in
    let parent = Hashtbl.create 64 in
    let rec find a =
      match Hashtbl.find_opt parent a with
      | Some p when not (Atom.equal p a) -> find p
      | _ -> a
    in
    let union a b =
      let ra = find a and rb = find b in
      if not (Atom.equal ra rb) then Hashtbl.replace parent ra rb
    in
    let active = ref Atom.Set.empty and d_ext = ref d in
    let activate nodes =
      let fresh = List.filter (fun a -> not (Atom.Set.mem a !active)) nodes in
      List.iter
        (fun a ->
          active := Atom.Set.add a !active;
          d_ext := Instance.add a !d_ext)
        fresh;
      (match nodes with [] -> () | a :: rest -> List.iter (union a) rest);
      fresh <> []
    in
    List.iter
      (fun ic ->
        List.iter
          (fun (v : Nullsat.violation) ->
            let ins =
              match v.Nullsat.ic with
              | Constr.Generic g -> inserts g v.Nullsat.theta
              | Constr.NotNull _ -> []
            in
            ignore (activate (v.Nullsat.matched @ ins)))
          (Nullsat.violations d ic))
      ics;
    let is_core a = Instance.mem a d && not (Atom.Set.mem a !active) in
    let changed = ref (not (Atom.Set.is_empty !active)) in
    while !changed do
      changed := false;
      let snapshot = !d_ext in
      iter_pvs snapshot ics ~f:(fun g theta witness ->
          let witnesses = cons_witnesses snapshot g theta in
          if
            (not (List.exists is_core witnesses))
            && (List.exists (fun a -> Atom.Set.mem a !active) witness
               || witnesses <> [])
            && activate (witness @ witnesses @ inserts g theta)
          then changed := true)
    done;
    let support = ref Instance.empty in
    let changed = ref true in
    while !changed do
      changed := false;
      iter_pvs !d_ext ics ~f:(fun g theta witness ->
          if
            List.for_all
              (fun a -> Atom.Set.mem a !active || Instance.mem a !support)
              witness
          then
            match List.find_opt is_core (cons_witnesses !d_ext g theta) with
            | Some w when not (Instance.mem w !support) ->
                support := Instance.add w !support;
                changed := true
            | _ -> ())
    done;
    let classes = Hashtbl.create 16 in
    Atom.Set.iter
      (fun a ->
        let r = find a in
        Hashtbl.replace classes r
          (Atom.Set.add a
             (Option.value ~default:Atom.Set.empty (Hashtbl.find_opt classes r))))
      !active;
    let components =
      Hashtbl.fold (fun _ s acc -> s :: acc) classes []
      |> List.sort (fun a b -> Atom.compare (Atom.Set.min_elt a) (Atom.Set.min_elt b))
      |> List.map (fun atoms ->
             let preds = Atom.Set.fold (fun a acc -> Atom.pred a :: acc) atoms [] in
             {
               Decompose.atoms;
               sub = Instance.filter (fun a -> Atom.Set.mem a atoms) d;
               support = !support;
               ics =
                 List.filter
                   (fun ic -> List.exists (fun p -> List.mem p preds) (Constr.preds ic))
                   ics;
             })
    in
    let tagged =
      List.concat
        (List.mapi
           (fun i c -> List.map (fun a -> (i, a)) (Atom.Set.elements c.Decompose.atoms))
           components)
    in
    let product_exact =
      not
        (List.exists
           (fun (i, a) ->
             Atom.has_null a
             && List.exists
                  (fun (j, b) -> i <> j && Repair.Order.matches_non_null_positions a b)
                  tagged)
           tagged)
    in
    {
      Decompose.core = Instance.filter (fun a -> not (Atom.Set.mem a !active)) d;
      components;
      universe;
      nnc_positions;
      product_exact;
    }
end

let same_plan (p : Decompose.plan) (q : Decompose.plan) =
  let same_component (a : Decompose.component) (b : Decompose.component) =
    Atom.Set.equal a.Decompose.atoms b.Decompose.atoms
    && Instance.equal a.Decompose.sub b.Decompose.sub
    && Instance.equal a.Decompose.support b.Decompose.support
    && List.equal Constr.equal a.Decompose.ics b.Decompose.ics
  in
  Instance.equal p.Decompose.core q.Decompose.core
  && List.equal same_component p.Decompose.components q.Decompose.components
  && List.equal Value.equal p.Decompose.universe q.Decompose.universe
  && p.Decompose.nnc_positions = q.Decompose.nnc_positions
  && p.Decompose.product_exact = q.Decompose.product_exact

let pp_plan ppf (p : Decompose.plan) =
  Fmt.pf ppf "@[<v>core %a@,%a@,exact %b@]" Instance.pp_inline p.Decompose.core
    Fmt.(
      list ~sep:cut (fun ppf (c : Decompose.component) ->
          Fmt.pf ppf "component %a sub %a support %a ics %d"
            (list ~sep:(any ", ") Atom.pp)
            (Atom.Set.elements c.Decompose.atoms)
            Instance.pp_inline c.Decompose.sub Instance.pp_inline
            c.Decompose.support (List.length c.Decompose.ics)))
    p.Decompose.components p.Decompose.product_exact

(* Cascade shapes the random menu rarely builds: a RIC chain whose
   insertions trigger the next link, a cyclic RIC (Example 18's shape), a
   late insertion candidate witnessing an earlier violation, and a
   conflicting NNC on a RIC's existential position (Example 20's).  Each
   case draws up to four tuples per predicate over [{a, b, c, d, null}];
   one in three also carries a padding of fully supported chains long
   enough to make the relations columnar segments, so the core overlay and
   the segment probes are exercised too. *)
let cascade_case seed =
  let rng = Random.State.make [| seed; 0xca5c |] in
  let pool = [| vs "a"; vs "b"; vs "c"; vs "d"; vn |] in
  let pick () = pool.(Random.State.int rng (Array.length pool)) in
  let facts pred arity =
    List.init (Random.State.int rng 5) (fun _ ->
        Atom.make pred (List.init arity (fun _ -> pick ())))
  in
  let ric name p ps q qs = Constr.generic ~name ~ante:[ atom p ps ] ~cons:[ atom q qs ] () in
  let label, preds, ics, pad =
    match (seed / 2) mod 4 with
    | 0 ->
        ( "ric chain",
          [ ("A", 1); ("B", 2); ("C", 2); ("D", 1) ],
          [
            ric "a_b" "A" [ v "x" ] "B" [ v "x"; v "y" ];
            ric "b_c" "B" [ v "x"; v "y" ] "C" [ v "x"; v "z" ];
            ric "c_d" "C" [ v "x"; v "z" ] "D" [ v "x" ];
            Ic.Builder.denial ~name:"no_ad" [ atom "A" [ v "x" ]; atom "D" [ v "x" ] ];
          ],
          fun k -> [ Atom.make "B" [ k; k ]; Atom.make "C" [ k; k ]; Atom.make "D" [ k ] ] )
    | 1 ->
        ( "cyclic ric",
          [ ("P", 1); ("R", 2) ],
          [
            ric "p_r" "P" [ v "x" ] "R" [ v "x"; v "y" ];
            ric "r_p" "R" [ v "x"; v "y" ] "P" [ v "y" ];
          ],
          fun k -> [ Atom.make "P" [ k ]; Atom.make "R" [ k; k ] ] )
    | 3 ->
        (* a candidate that appears late in the cascade (Q(x, x), via R)
           witnesses the consequent of a P-violation that already fired *)
        ( "late witness",
          [ ("P", 1); ("Q", 2); ("R", 1); ("S", 1) ],
          [
            ric "p_q" "P" [ v "x" ] "Q" [ v "x"; v "y" ];
            ric "s_r" "S" [ v "x" ] "R" [ v "x" ];
            ric "r_q" "R" [ v "x" ] "Q" [ v "x"; v "x" ];
          ],
          fun k -> [ Atom.make "P" [ k ]; Atom.make "Q" [ k; k ]; Atom.make "S" [ k ]; Atom.make "R" [ k ] ] )
    | _ ->
        ( "conflicting nnc",
          [ ("P", 1); ("Q", 2); ("S", 1) ],
          [
            ric "p_q" "P" [ v "x" ] "Q" [ v "x"; v "y" ];
            Constr.not_null ~name:"nn_q2" ~pred:"Q" ~arity:2 ~pos:2 ();
            ric "q_s" "Q" [ v "x"; v "y" ] "S" [ v "x" ];
          ],
          fun k -> [ Atom.make "P" [ k ]; Atom.make "Q" [ k; k ]; Atom.make "S" [ k ] ] )
  in
  let padding =
    if Random.State.int rng 3 = 0 then
      List.concat (List.init 150 (fun i -> pad (Value.int i)))
    else []
  in
  {
    Gen.label = Printf.sprintf "%s (seed %d)" label seed;
    d = Instance.of_atoms (List.concat_map (fun (p, n) -> facts p n) preds @ padding);
    ics;
  }

let diff_plan_test =
  QCheck.Test.make ~name:"plan = naive fixpoint (500 random and cascade cases)"
    ~count:500
    QCheck.(int_bound 1_000_000) (fun seed ->
      let w = if seed mod 2 = 0 then Gen.random_case ~seed () else cascade_case seed in
      let expected = Oracle.plan w.Gen.d w.Gen.ics in
      let cold = Decompose.plan w.Gen.d w.Gen.ics in
      let seeded =
        Decompose.plan
          ~violations:
            (Semantics.Nullsat.canonical_violations
               (Semantics.Nullsat.check w.Gen.d w.Gen.ics))
          w.Gen.d w.Gen.ics
      in
      if not (same_plan expected cold) then
        QCheck.Test.fail_reportf "plan differs on %s:@.naive %a@.plan %a" w.Gen.label
          pp_plan expected pp_plan cold
      else if not (same_plan cold seeded) then
        QCheck.Test.fail_reportf "~violations changes the plan on %s:@.%a@.%a"
          w.Gen.label pp_plan cold pp_plan seeded
      else true)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "decompose"
    [
      ( "plan",
        [
          Alcotest.test_case "consistent instance" `Quick test_plan_consistent;
          Alcotest.test_case "clusters" `Quick test_plan_clusters;
          Alcotest.test_case "support atoms" `Quick test_plan_support_atoms;
          Alcotest.test_case "late witness" `Quick test_plan_late_witness;
          Alcotest.test_case "shared universe" `Quick test_components_share_universe;
        ] );
      ( "differential",
        [
          Alcotest.test_case "paper examples" `Quick test_examples_differential;
          Alcotest.test_case "clusters" `Quick test_clusters_differential;
          Alcotest.test_case "exploration collapses" `Quick test_exploration_collapses;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "engine" `Quick test_engine_decomposed;
          Alcotest.test_case "cqa" `Quick test_cqa_decomposed;
        ] );
      ("qcheck", qcheck [ diff_repairs_test; diff_cqa_test; diff_plan_test ]);
    ]
