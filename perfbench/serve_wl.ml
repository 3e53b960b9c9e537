(* The serve_sessions workload: the real `cqanull serve` binary on a Unix
   socket (--jobs 1, --engine auto) over a P -> Q base, and two client
   connections from this process, each replaying its session script in
   a closed loop.  Replies are checked against the script's model of the
   session's P/Q state. *)

module T = Trace

let now = Unix.gettimeofday
let binary = "_build/default/bin/main.exe"
let work_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* A lock-step client for the framed wire: one request line, reply lines
   up to the "." frame. *)

type conn = { fd : Unix.file_descr; buf : Bytes.t; mutable pos : int; mutable len : int }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; buf = Bytes.create 65536; pos = 0; len = 0 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

let read_line c =
  let line = Buffer.create 128 in
  let rec go () =
    if c.pos >= c.len then begin
      c.pos <- 0;
      c.len <- Unix.read c.fd c.buf 0 (Bytes.length c.buf);
      if c.len = 0 then failwith "server closed the connection"
    end;
    match Bytes.index_from_opt c.buf c.pos '\n' with
    | Some i when i < c.len ->
        Buffer.add_subbytes line c.buf c.pos (i - c.pos);
        c.pos <- i + 1
    | _ ->
        Buffer.add_subbytes line c.buf c.pos (c.len - c.pos);
        c.pos <- c.len;
        go ()
  in
  go ();
  Buffer.contents line

let request c line =
  write_all c.fd (line ^ "\n") 0;
  let reply = Buffer.create 1024 in
  let rec go () =
    match read_line c with
    | "." -> Buffer.contents reply
    | l ->
        Buffer.add_string reply l;
        Buffer.add_char reply '\n';
        go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* The server child *)

type server = { pid : int; sock : string }

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* The live server child, killed if this process is told to stop. *)
let child = ref None

let () =
  let stop_child _ =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !child;
    exit 2
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_child);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_child)

(* Start the server on [base_file]; returns once it accepts connections,
   which it does only after loading the base. *)
let start ~base_file ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let prog, argv =
    Pin.server [| binary; "serve"; base_file; "--socket"; sock; "--jobs"; "1"; "--engine"; "auto" |]
  in
  let pid = Unix.create_process prog argv null null null in
  child := Some pid;
  Unix.close null;
  let deadline = now () +. 120. in
  let rec wait () =
    match connect sock with
    | Some c -> close c
    | None ->
        if exited pid then failwith "cqanull serve exited during start-up"
        else if now () > deadline then failwith "cqanull serve did not start"
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
  in
  (try wait ()
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] pid);
     child := None;
     raise e);
  { pid; sock }

(* Ask for `shutdown`; kill the child if it does not end in time. *)
let stop srv =
  (match connect srv.sock with
  | Some c ->
      (try ignore (request c "shutdown") with _ -> ());
      close c
  | None -> ());
  let deadline = now () +. 10. in
  let rec wait () =
    if exited srv.pid then ()
    else if now () > deadline then begin
      (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] srv.pid)
    end
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ();
  child := None;
  try Unix.unlink srv.sock with Unix.Unix_error _ -> ()

(* VmHWM of a live process ([0]: this one), in MB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | None -> failwith ("no VmHWM in " ^ path)
  | Some l -> (
      match String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) l) |> List.filter (( <> ) "") with
      | _ :: kb :: _ -> float_of_string kb /. 1024.
      | _ -> failwith ("unreadable " ^ l))

(* ------------------------------------------------------------------ *)
(* Inputs *)

type inputs = { base : Gen.serve_base; scripts : Gen.step array list }

let clients = 2
let rounds = 400

let generate seed =
  let rng = Gen.Rng.make seed in
  let base = Gen.serve_base rng in
  { base; scripts = Gen.serve_scripts rng base ~clients ~rounds }

(* The expected reply of one step, checked against [text]. *)
let verify base (step : Gen.step) text =
  let m = step.Gen.after in
  let e = Gen.serve_expect base m in
  match step.Gen.op with
  | Gen.Write _ -> Check.write_reply ~tuples:(Gen.serve_tuples base m) ~violations:e.Gen.violations text
  | Gen.Cqa -> Check.cqa_reply e text
  | Gen.Check -> Check.check_reply ~violations:e.Gen.violations text

(* ------------------------------------------------------------------ *)
(* The untraced run *)

type sample = { ms : float; op : Gen.op; tuples : int }

type run = {
  samples : sample list;
  elapsed : float;
  failures : string list;
  setup_times : float list;
  peak_rss_mb : float;
}

(* The clients' scripts in a closed loop until [deadline]: one request in
   flight, the connections taking turns step by step, so a latency is the
   server's service time plus the wire, never a wait behind the other
   client.  Returns, per client, (step, ms, reply) newest first. *)
let drive sock scripts deadline =
  let conns = List.map (fun _ -> connect sock) scripts in
  let out = Array.make (List.length scripts) [] in
  let scripts = Array.of_list scripts in
  (match List.find_opt Option.is_none conns with
  | Some _ -> out.(0) <- [ (-1, 0., "cannot connect") ]
  | None ->
      let conns = Array.of_list (List.map Option.get conns) in
      let rec go k =
        if k < Array.length scripts.(0) && now () < deadline then begin
          Array.iteri
            (fun c script ->
              let a = now () in
              let reply =
                match request conns.(c) script.(k).Gen.line with
                | r -> r
                | exception e -> "error: " ^ Printexc.to_string e
              in
              out.(c) <- (k, (now () -. a) *. 1000., reply) :: out.(c))
            scripts;
          go (k + 1)
        end
      in
      go 0;
      Array.iter close conns);
  Array.to_list out

let run ~seed ~seconds =
  ensure_dir work_dir;
  let base_file = Filename.concat work_dir (Printf.sprintf "serve-%d.cqa" (Unix.getpid ())) in
  let sock = Filename.concat work_dir (Printf.sprintf "s-%d.sock" (Unix.getpid ())) in
  (* set-up: generate, write the base, start the server until it accepts;
     seven times, the last server is the one measured *)
  let setup () =
    let a = now () in
    let inputs = generate seed in
    Out_channel.with_open_text base_file (fun oc -> output_string oc inputs.base.Gen.base_text);
    let srv = start ~base_file ~sock in
    (now () -. a, inputs, srv)
  in
  let times = ref [] in
  let rec setups k =
    let dt, inputs, srv = setup () in
    times := dt :: !times;
    if k > 1 then begin
      stop srv;
      setups (k - 1)
    end
    else (inputs, srv)
  in
  let inputs, srv = setups 7 in
  Fun.protect
    ~finally:(fun () ->
      stop srv;
      try Sys.remove base_file with Sys_error _ -> ())
    (fun () ->
      let t0 = now () in
      let deadline = t0 +. seconds in
      let outs = drive sock inputs.scripts deadline in
      let elapsed = now () -. t0 in
      let rss = peak_rss_mb srv.pid in
      let samples = ref [] and failures = ref [] in
      List.iteri
        (fun c (script, out) ->
          List.iter
            (fun (k, ms, reply) ->
              if k < 0 then failures := Printf.sprintf "client %d: %s" c reply :: !failures
              else
                let step = script.(k) in
                samples := { ms; op = step.Gen.op; tuples = Gen.serve_tuples inputs.base step.Gen.after } :: !samples;
                match verify inputs.base step reply with
                | Ok () -> ()
                | Error e ->
                    failures := Printf.sprintf "client %d step %d (%s): %s" c k step.Gen.line e :: !failures)
            out)
        (List.combine inputs.scripts outs);
      { samples = !samples; elapsed; failures = !failures; setup_times = !times; peak_rss_mb = rss })

(* ------------------------------------------------------------------ *)
(* The traced run: the scripts replayed in-process through the layers the
   server calls — Session.apply for writes, Session.cqa for cqa, the
   protocol's exec for check — over one shared component cache, as the
   server shares it.  Two replays run in lockstep, step by step: one
   without spans (the untraced outcome and time) and one with them.  Each
   cqa answer of the traced replay is then recomputed cold, stage by
   stage, on the session's current instance, outside the request's span
   and into a trace of its own ([cold]), so the request spans hold only
   the work the server does. *)

let sp tr name f = match tr with Some t -> T.span t name f | None -> f ()

type replay = {
  tr : T.t option;
  cold : T.t;  (* the cold recomputations of the traced replay's reads *)
  inputs : inputs;
  loaded : Lang.Load.loaded;
  query : Query.Qsyntax.t;
  cache : Session.Cache.t;
  sessions : (Serve.Protocol.t * Session.t) array;
  mutable wall : float;  (* seconds inside the steps *)
  mutable steps : int;
  mutable failures : string list;
}

let replay ?tr (inputs : inputs) =
  let ltr = match tr with Some t -> t | None -> T.create () in
  let cache = Session.Cache.create ~capacity:4096 in
  let cfg =
    { (Serve.Protocol.repl_config ~engine:Session.Auto ()) with allow_load = false; cache = Some cache }
  in
  (* the server's start-up: load the base, check it once, then one
     session per connection over the shared base and violations *)
  let setup () =
    let l, d = Stage.load ltr inputs.base.Gen.base_text in
    let v = T.span ltr "semantics.check" (fun () -> Semantics.Nullsat.check d l.Lang.Load.ics) in
    let violations = Semantics.Nullsat.canonical_violations v in
    let attach _ =
      let p = Serve.Protocol.create cfg in
      ( p,
        T.span ltr "session.create" (fun () ->
            Serve.Protocol.attach ~violations p ~base:d ~ics:l.Lang.Load.ics
              (Serve.Protocol.env_of_loaded l)) )
    in
    (l, Array.of_list (List.map attach inputs.scripts))
  in
  let l, sessions =
    match tr with Some t -> T.root t ~req:(-1) "setup" setup | None -> setup ()
  in
  {
    tr;
    cold = T.create ();
    inputs;
    loaded = l;
    query = Stage.query l "members";
    cache;
    sessions;
    wall = 0.;
    steps = 0;
    failures = [];
  }

let fail r msg = r.failures <- msg :: r.failures

(* Step [k] of client [c]; returns the reply text, rendered as the
   protocol renders it. *)
let step r c k =
  let st = (List.nth r.inputs.scripts c).(k) in
  let p, s = r.sessions.(c) in
  let tr = r.tr in
  let body () =
    match st.Gen.op with
    | Gen.Write { insert; pred; key } ->
        let atom = Relational.Atom.make pred [ Relational.Value.str key ] in
        sp tr "session.apply" (fun () ->
            Session.apply s [ (if insert then Delta.insert atom else Delta.delete atom) ]);
        ( Printf.sprintf "ok: %d tuples, %d violation(s)\n"
            (Relational.Instance.cardinal (Session.instance s))
            (List.length (Session.violations s)),
          None )
    | Gen.Cqa -> (
        match sp tr "session.cqa" (fun () -> Session.cqa s r.query) with
        | Error e -> ("error: " ^ e, None)
        | Ok o -> (Fmt.str "%a@." Query.Cqa.pp_outcome o, Some o))
    | Gen.Check -> ((sp tr "serve.exec" (fun () -> Serve.Protocol.exec p "check")).Serve.Protocol.text, None)
  in
  let a = now () in
  let text, answered =
    match tr with
    | Some t -> T.root t ~req:((k * Array.length r.sessions) + c) "request" body
    | None -> body ()
  in
  r.wall <- r.wall +. (now () -. a);
  r.steps <- r.steps + 1;
  (match (tr, answered) with
  | Some _, Some o -> (
      let cold = r.cold in
      cold.T.requests <- cold.T.requests + 1;
      match
        T.root cold ~req:((k * Array.length r.sessions) + c) "cold" (fun () ->
            Stage.answer cold (Session.instance s) r.loaded.Lang.Load.ics r.query)
      with
      | o', _ when Check.same_outcome o' o -> ()
      | _ -> fail r (Printf.sprintf "client %d step %d: session answer differs from the cold one" c k)
      | exception Failure e -> fail r e)
  | _ -> ());
  (match verify r.inputs.base st text with
  | Ok () -> ()
  | Error e -> fail r (Printf.sprintf "client %d step %d (%s): %s" c k st.Gen.line e));
  text

(* Session and cache counts into the trace, once the replay is done. *)
let close_replay r =
  match r.tr with
  | Some t ->
      t.T.requests <- r.steps;
      Array.iter (fun (_, s) -> Stage.session_counts t (Session.stats s)) r.sessions;
      T.count t "serve.cross_hit_rate" (Session.Cache.cross_hit_rate (Session.Cache.stats r.cache))
  | None -> ()

let traced tr ~seed ~seconds =
  let inputs = generate seed in
  let deadline = now () +. seconds in
  let plain = replay inputs and staged = replay ~tr inputs in
  let steps = Array.length (List.hd inputs.scripts) in
  let differ = ref [] in
  let k = ref 0 in
  while !k < steps && (!k = 0 || now () < deadline) do
    List.iteri
      (fun c _ ->
        (* alternate which replay goes first *)
        let a, b =
          if !k mod 2 = 0 then
            let a = step plain c !k in
            (a, step staged c !k)
          else
            let b = step staged c !k in
            (step plain c !k, b)
        in
        if a <> b then
          differ := Printf.sprintf "client %d step %d: traced reply differs from the untraced one" c !k :: !differ)
      inputs.scripts;
    incr k
  done;
  close_replay staged;
  let overhead = if plain.wall > 0. then staged.wall /. plain.wall else 0. in
  ( staged.steps,
    List.rev plain.failures @ List.rev staged.failures @ List.rev !differ,
    overhead,
    staged.cold )
