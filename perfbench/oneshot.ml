(* The program_stream workload: one client sends whole .cqa files in a
   closed loop, each answered cold by [Lang.Load.of_string] and
   [Query.Cqa.consistent_answers ~method_:Auto], the path of
   `cqanull cqa`. *)

module T = Trace

type sample = { ms : float; tuples : int }

type run = {
  samples : sample list;
  elapsed : float;  (* seconds of the measured loop *)
  failures : string list;
}

let now = Unix.gettimeofday
let fail_msg i (r : Gen.request) msg = Printf.sprintf "request %d (%s): %s" i r.Gen.shape msg

(* Closed loop for [seconds], and over at least [min_requests] requests.
   Each answer is checked right after it is timed, and the checks are
   left out of [elapsed], so they neither count toward the measured time
   nor pile up answers in memory.  [tick] runs about once a second, also
   left out of [elapsed]. *)
let plain ?(min_requests = 1) ?(tick = ignore) (reqs : Gen.request array) ~seconds =
  let n = Array.length reqs in
  let t0 = now () in
  let next_tick = ref t0 in
  let deadline = t0 +. seconds in
  let untimed = ref 0. in
  let off f =
    let a = now () in
    let r = f () in
    untimed := !untimed +. (now () -. a);
    r
  in
  let rec loop i samples failures =
    if i >= min_requests && now () >= deadline then (samples, failures)
    else begin
      if now () >= !next_tick then begin
        off tick;
        next_tick := !next_tick +. 1.
      end;
      let r = reqs.(i mod n) in
      let a = now () in
      let o = Stage.plain r.Gen.text r.Gen.query in
      let ms = (now () -. a) *. 1000. in
      let failures =
        off (fun () ->
            match Result.bind o (Check.outcome r.Gen.expect) with
            | Ok () -> failures
            | Error e -> fail_msg i r e :: failures)
      in
      loop (i + 1) ({ ms; tuples = r.Gen.tuples } :: samples) failures
    end
  in
  let samples, failures = loop 0 [] [] in
  { samples; elapsed = now () -. t0 -. !untimed; failures = List.rev failures }

(* The same request answered again through a session and the line
   protocol: Session.create over the file's facts, its update statements
   as one batch, Session.cqa, and the protocol's `check`. *)
let session_replay tr (l : Lang.Load.loaded) q =
  let p = Serve.Protocol.create (Serve.Protocol.repl_config ~engine:Session.Auto ()) in
  let s =
    T.span tr "session.create" (fun () ->
        Serve.Protocol.attach p ~base:l.Lang.Load.instance ~ics:l.Lang.Load.ics
          (Serve.Protocol.env_of_loaded l))
  in
  T.span tr "session.apply" (fun () -> Session.apply s l.Lang.Load.updates);
  let o = T.span tr "session.cqa" (fun () -> Session.cqa s q) in
  let reply = T.span tr "serve.exec" (fun () -> Serve.Protocol.exec p "check") in
  Stage.session_counts tr (Session.stats s);
  (o, reply.Serve.Protocol.text)

(* The traced run: each request answered plainly (the untraced outcome
   and time), then staged layer by layer, then replayed through a
   session; all three must agree with each other and with the
   expectation. *)
let traced tr (reqs : Gen.request array) ~seconds =
  let n = Array.length reqs in
  let deadline = now () +. seconds in
  let plain_s = ref 0. and staged_s = ref 0. in
  let failures = ref [] in
  let i = ref 0 in
  while !i = 0 || now () < deadline do
    let r = reqs.(!i mod n) in
    let untraced () =
      let a = now () in
      let o = Stage.plain r.Gen.text r.Gen.query in
      plain_s := !plain_s +. (now () -. a);
      o
    in
    let staged () =
      let a = now () in
      let o = T.root tr ~req:!i "request" (fun () -> Stage.request tr r.Gen.text r.Gen.query) in
      staged_s := !staged_s +. (now () -. a);
      o
    in
    (* alternate which goes first, so neither always meets a heap or an
       interning table the other warmed *)
    let staged () = match staged () with s -> Ok s | exception Failure e -> Error e in
    let o_plain, o_staged =
      if !i mod 2 = 0 then
        let o = untraced () in
        (o, staged ())
      else
        let s = staged () in
        (untraced (), s)
    in
    let problems =
      match o_staged with
      | Error e -> [ e ]
      | Ok (l, o_staged, violations) ->
          let q = Stage.query l r.Gen.query in
          let o_session, check_text =
            T.root tr ~req:!i "session" (fun () -> session_replay tr l q)
          in
          let e = r.Gen.expect in
          List.filter_map Fun.id
            [
              (match Result.bind o_plain (Check.outcome e) with
              | Ok () -> None
              | Error m -> Some ("untraced: " ^ m));
              (match o_plain with
              | Ok p when Check.same_outcome p o_staged -> None
              | _ -> Some "staged outcome differs from the untraced one");
              (match o_session with
              | Ok s when Check.same_outcome s o_staged -> None
              | _ -> Some "session outcome differs from the staged one");
              (if List.length violations = e.Gen.violations then None
               else
                 Some
                   (Printf.sprintf "check: %d violations, expected %d" (List.length violations)
                      e.Gen.violations));
              Result.fold ~ok:(fun () -> None) ~error:Option.some
                (Check.check_reply ~violations:e.Gen.violations check_text);
            ]
    in
    failures := List.map (fail_msg !i r) problems @ !failures;
    tr.T.requests <- tr.T.requests + 1;
    incr i
  done;
  (* the staged request runs one stage the request path folds into its
     plan (the |=_N check); it is left out of the overhead *)
  let check_s = T.per_request_ms tr "semantics.check" *. float_of_int tr.T.requests /. 1000. in
  let overhead = if !plain_s > 0. then (!staged_s -. check_s) /. !plain_s else 0. in
  (!i, List.rev !failures, overhead)
