(* The checker's self-test.

   1. A run whose expectations carry one perturbed answer must be flagged
      as failed — for each workload's checker.
   2. The generators' closed forms, at the committed conformance corpus's
      own small parameters, must reproduce the corpus text, its pinned
      repair counts and answer sets, and the engine's answers on the
      committed scenario files. *)

let ok = ref true

let report name pass detail =
  if not pass then ok := false;
  Printf.printf "%-58s %s%s\n" name (if pass then "ok" else "FAILED") (if detail = "" then "" else ": " ^ detail)

(* drop one answer from the first non-empty set, or invent one *)
let perturb (e : Gen.expect) =
  match Gen.Tuple.Set.min_elt_opt e.Gen.certain with
  | Some t -> { e with Gen.certain = Gen.Tuple.Set.remove t e.Gen.certain }
  | None -> { e with Gen.possible = Gen.Tuple.Set.add (Gen.row [ "perturbed" ]) e.Gen.possible }

let oneshot_flagged name (reqs : Gen.request list) =
  let reqs = Array.of_list reqs in
  let clean = Oneshot.plain ~min_requests:(Array.length reqs) reqs ~seconds:0. in
  report (name ^ ": unperturbed run passes") (clean.Oneshot.failures = [])
    (String.concat "; " clean.Oneshot.failures);
  let bad = Array.copy reqs in
  bad.(0) <- { bad.(0) with Gen.expect = perturb bad.(0).Gen.expect };
  let run = Oneshot.plain ~min_requests:(Array.length bad) bad ~seconds:0. in
  report (name ^ ": one perturbed answer is flagged")
    (List.length run.Oneshot.failures = 1)
    (match run.Oneshot.failures with f :: _ -> f | [] -> "not flagged")

(* one round of both clients through the in-process replay *)
let serve_replay inputs =
  let r = Serve_wl.replay inputs in
  for k = 0 to 13 do
    List.iteri (fun c _ -> ignore (Serve_wl.step r c k)) inputs.Serve_wl.scripts
  done;
  r

let serve_flagged () =
  let inputs = Serve_wl.generate 1 in
  let r = serve_replay inputs in
  report "serve_sessions: unperturbed replay passes" (r.Serve_wl.failures = [] && r.Serve_wl.steps = 28)
    (String.concat "; " r.Serve_wl.failures);
  (* client 0's second step is a cqa read; claim one more lone P key *)
  let script = Array.copy (List.hd inputs.Serve_wl.scripts) in
  let step = script.(1) in
  let m = step.Gen.after in
  script.(1) <- { step with Gen.after = { m with Gen.p_extra = "perturbed" :: m.Gen.p_extra } };
  let r = serve_replay { inputs with Serve_wl.scripts = script :: List.tl inputs.Serve_wl.scripts } in
  report "serve_sessions: one perturbed answer is flagged" (List.length r.Serve_wl.failures = 1)
    (match r.Serve_wl.failures with f :: _ -> f | [] -> "not flagged")

(* ------------------------------------------------------------------ *)
(* The corpus cross-check *)

let corpus =
  let c = Gen.Canonical in
  [
    ("fk_chain_clean", Gen.fk_chain c ~parents:2 ~children:3 ~orphan_children:0 ~orphan_grandchildren:0);
    ("fk_chain_orphans", Gen.fk_chain c ~parents:2 ~children:3 ~orphan_children:2 ~orphan_grandchildren:1);
    ("fk_chain_deep", Gen.fk_chain c ~parents:1 ~children:2 ~orphan_children:1 ~orphan_grandchildren:2);
    ("fd_cluster_single", Gen.fd_cluster c ~rows:3 ~widths:[ 2 ]);
    ("fd_cluster_pair", Gen.fd_cluster c ~rows:4 ~widths:[ 2; 2 ]);
    ("fd_cluster_wide", Gen.fd_cluster c ~rows:3 ~widths:[ 3; 3 ]);
    ("cyclic_ric_clean", Gen.cyclic_ric c ~complete:2 ~dangling:0);
    ("cyclic_ric_dangling", Gen.cyclic_ric c ~complete:2 ~dangling:2);
    ("cyclic_ric_deep", Gen.cyclic_ric c ~complete:1 ~dangling:3);
    ("nnc_ric_forced", Gen.nnc_ric c ~staff:1 ~unassigned:2 ~unaudited:0);
    ("nnc_ric_mixed", Gen.nnc_ric c ~staff:1 ~unassigned:1 ~unaudited:2);
    ("nnc_ric_audit", Gen.nnc_ric c ~staff:2 ~unassigned:0 ~unaudited:3);
    ("session_stream_clean", Gen.session_stream c ~base:2 ~added:1 ~dangling:0 ~revoked:0);
    ("session_stream_churn", Gen.session_stream c ~base:2 ~added:1 ~dangling:1 ~revoked:1);
    ("session_stream_revoke", Gen.session_stream c ~base:3 ~added:0 ~dangling:0 ~revoked:2);
  ]

let cross_check (name, part) =
  let req = Gen.request Gen.Canonical ~shape:name part in
  let e = req.Gen.expect in
  match List.find_opt (fun (c : Conform.Case.t) -> c.Conform.Case.name = name) Conform.Corpus.all with
  | None -> report ("corpus " ^ name) false "no such corpus case"
  | Some case ->
      let pin = case.Conform.Case.expect in
      let file = Printf.sprintf "scenarios/%s/%s.cqa" case.Conform.Case.family name in
      let committed =
        match In_channel.with_open_text file In_channel.input_all with
        | text -> Ok text
        | exception Sys_error m -> Error m
      in
      let problems =
        List.filter_map Fun.id
          [
            (if case.Conform.Case.source = req.Gen.text then None else Some "text differs from the corpus case");
            (match committed with
            | Ok text when text = Printf.sprintf "%% %s\n%s" case.Conform.Case.doc req.Gen.text -> None
            | Ok _ -> Some ("text differs from " ^ file)
            | Error m -> Some m);
            (if pin.Conform.Case.repairs = Some e.Gen.repairs then None else Some "repair count differs from the pin");
            (if pin.Conform.Case.certain = Some (Check.render e.Gen.certain) then None
             else Some "certain set differs from the pin");
            (if pin.Conform.Case.possible = Some (Check.render e.Gen.possible) then None
             else Some "possible set differs from the pin");
            (if pin.Conform.Case.consistent_db = Some (e.Gen.violations = 0) then None
             else Some "consistency differs from the pin");
            (match committed with
            | Ok text -> (
                let body = String.concat "\n" (List.tl (String.split_on_char '\n' text)) in
                match Stage.plain body req.Gen.query with
                | Error m -> Some m
                | Ok o -> Result.fold ~ok:(fun () -> None) ~error:Option.some (Check.outcome e o))
            | Error _ -> None);
          ]
      in
      report ("corpus " ^ name ^ ": closed form = pins = engine") (problems = []) (String.concat "; " problems)

let run () =
  oneshot_flagged "program_stream" (Gen.program_stream (Gen.Rng.make 1) 40);
  serve_flagged ();
  List.iter cross_check corpus;
  Printf.printf "self-test: %s\n" (if !ok then "passed" else "FAILED");
  if !ok then 0 else 1
