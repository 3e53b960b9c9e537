(* The repository benchmark.

     bench --workload NAME --seed N --seconds S --trace 0|1
     bench --self-test

   Workloads: program_stream and serve_sessions, as declared in
   BENCHMARK.json.  --trace 0 measures the end-to-end metrics; --trace 1
   is the separate traced run that gives the per-layer metrics and writes
   its spans to .perfbench/trace-WORKLOAD-SEED.jsonl.  The last line of standard
   output is one JSON object; any wrong answer makes the exit code 1. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

(* The fixed tail percentile of both workloads, with far more than ten
   samples beyond it at the request counts a 30 s run reaches (about 8000
   and 2500).  Higher ones landed, run by run, in or out of short bursts
   of slow requests that come and go with the machine, and spread wider
   than the bounds. *)
let tail_percentile = 95.

(* ------------------------------------------------------------------ *)
(* Result line *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let finish ~attempted failures metrics =
  List.iteri (fun i f -> if i < 10 then prerr_endline ("wrong answer: " ^ f)) failures;
  let failed = min attempted (List.length failures) in
  print_result ~correct:(failures = []) ~attempted ~failed metrics;
  if failures = [] then 0 else 1

(* End-to-end metrics over (latency ms, tuples answered, is a read). *)
let end_to_end ~setup_s ~elapsed ~rss samples =
  let lat = List.map (fun (ms, _, _) -> ms) samples in
  let reads = List.filter_map (fun (ms, _, read) -> if read then Some ms else None) samples in
  let tuples = List.fold_left (fun acc (_, t, _) -> acc + t) 0 samples in
  let n = List.length samples in
  [
    m "setup_s" "s" setup_s;
    m "requests_per_s" "1/s" (float_of_int n /. elapsed);
    m "latency_p50_ms" "ms" (median lat);
    m "latency_tail_ms" "ms" (percentile tail_percentile lat);
    m "read_p50_ms" "ms" (median reads);
    m "tuples_per_s" "1/s" (float_of_int tuples /. elapsed);
    m "peak_rss_mb" "MB" rss;
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced run.  The stages of the staged request
   after loading (check, plan, route, solve, answer) are read from
   [stages]: [tr] itself on program_stream, the cold recomputations of
   the reads on serve_sessions. *)

let per_layer ?stages tr ~overhead =
  let st = Option.value ~default:tr stages in
  let ms ?(tr = tr) name = m (name ^ "_ms") "ms" (Trace.per_request_ms tr name) in
  let per ?(tr = tr) name unit_ = m name unit_ (Trace.per_request tr name) in
  let hits = Trace.total tr "session.cache_hits" and misses = Trace.total tr "session.cache_misses" in
  [
    ms "lang.parse";
    ms "lang.load";
    per "lang.parse_alloc_mw" "Mword";
    ms ~tr:st "semantics.check";
    per ~tr:st "semantics.violations" "count";
    ms ~tr:st "query.standard";
    ms ~tr:st "repair.plan";
    per ~tr:st "repair.plan_alloc_mw" "Mword";
    per ~tr:st "repair.components" "count";
    per ~tr:st "repair.active_atoms" "count";
    per ~tr:st "repair.core_tuples" "count";
    ms ~tr:st "route.classify";
    per ~tr:st "route.direct" "count";
    per ~tr:st "route.shifted" "count";
    per ~tr:st "route.disjunctive" "count";
    per ~tr:st "route.enumerated" "count";
    ms ~tr:st "route.direct_solve";
    ms ~tr:st "core.program_solve";
    per ~tr:st "core.programs" "count";
    per ~tr:st "asp.decisions" "count";
    per ~tr:st "asp.conflicts" "count";
    per ~tr:st "asp.learned" "count";
    per ~tr:st "asp.restarts" "count";
    per ~tr:st "repair.states" "count";
    ms ~tr:st "query.answer";
    per ~tr:st "query.answer_alloc_mw" "Mword";
    ms "session.create";
    ms "session.apply";
    ms "session.cqa";
    per "session.plan_reuses" "count";
    per "session.plan_rebuilds" "count";
    per "session.ics_rescanned" "count";
    m "session.cache_hit_rate" "ratio" (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    ms "serve.exec";
    m "serve.cross_hit_rate" "ratio" (Trace.total tr "serve.cross_hit_rate");
    m "trace.coverage" "ratio" (Trace.coverage tr);
    m "trace.overhead_ratio" "ratio" overhead;
  ]

(* ------------------------------------------------------------------ *)
(* Workloads *)

let write_trace tr workload seed =
  Serve_wl.ensure_dir Serve_wl.work_dir;
  Trace.write tr (Filename.concat Serve_wl.work_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed))

(* Set-up is generating the inputs.  It is timed once before the loop and
   then about once a second during it, off the loop's clock, and the
   median is reported.  The host's speed moves in phases of a second or
   more: back-to-back set-ups all fell in one phase, so their median moved
   between runs far more than the loop's metrics did. *)
let run_program_stream ~seed ~seconds ~trace =
  let generate () =
    let a = now () in
    let reqs = Gen.program_stream (Gen.Rng.make seed) 500 in
    let dt = now () -. a in
    (dt, Array.of_list reqs)
  in
  let first, reqs = generate () in
  if trace then begin
    let tr = Trace.create () in
    let attempted, failures, overhead = Oneshot.traced tr reqs ~seconds in
    write_trace tr "program_stream" seed;
    finish ~attempted failures (per_layer tr ~overhead)
  end
  else
    let times = ref [ first ] in
    let tick () = times := fst (generate ()) :: !times in
    let r = Oneshot.plain ~tick reqs ~seconds in
    let samples = List.map (fun (s : Oneshot.sample) -> (s.Oneshot.ms, s.Oneshot.tuples, true)) r.Oneshot.samples in
    finish ~attempted:(List.length samples) r.Oneshot.failures
      (end_to_end ~setup_s:(median !times) ~elapsed:r.Oneshot.elapsed ~rss:(Serve_wl.peak_rss_mb 0) samples)

let run_serve ~seed ~seconds ~trace =
  if trace then begin
    let tr = Trace.create () in
    let attempted, failures, overhead, stages = Serve_wl.traced tr ~seed ~seconds in
    write_trace tr "serve_sessions" seed;
    write_trace stages "serve_sessions-cold" seed;
    finish ~attempted failures (per_layer ~stages tr ~overhead)
  end
  else
    let r = Serve_wl.run ~seed ~seconds in
    let samples =
      List.map
        (fun (s : Serve_wl.sample) ->
          match s.Serve_wl.op with
          | Gen.Cqa -> (s.Serve_wl.ms, s.Serve_wl.tuples, true)
          | Gen.Check -> (s.Serve_wl.ms, 0, true)
          | Gen.Write _ -> (s.Serve_wl.ms, 0, false))
        r.Serve_wl.samples
    in
    finish ~attempted:(max 1 (List.length samples)) r.Serve_wl.failures
      (end_to_end ~setup_s:(median r.Serve_wl.setup_times) ~elapsed:r.Serve_wl.elapsed
         ~rss:r.Serve_wl.peak_rss_mb samples)

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench --workload program_stream|serve_sessions --seed N --seconds S \
     --trace 0|1\n       bench --self-test";
  2

let () =
  Pin.self ();
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | "--self-test" :: rest -> parse (("self-test", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> Some acc
    | _ -> None
  in
  let code =
    match parse [] args with
    | None -> usage ()
    | Some opts when List.mem_assoc "self-test" opts -> Selftest.run ()
    | Some opts -> (
        let get k = List.assoc_opt k opts in
        match
          ( get "workload",
            Option.bind (get "seed") int_of_string_opt,
            Option.bind (get "seconds") float_of_string_opt,
            Option.value ~default:"0" (get "trace") )
        with
        | Some w, Some seed, Some seconds, (("0" | "1") as t) -> (
            let trace = t = "1" in
            match w with
            | "program_stream" -> run_program_stream ~seed ~seconds ~trace
            | "serve_sessions" -> run_serve ~seed ~seconds ~trace
            | _ -> usage ())
        | _ -> usage ())
  in
  exit code
