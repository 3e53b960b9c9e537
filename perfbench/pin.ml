(* CPU placement.  Where this process may use two or more CPUs and
   taskset is on the PATH, the benchmark runs on the first allowed CPU and
   the serve child on the last, so the load generator and the server do
   not trade places from run to run: unplaced, serve runs fell into a
   fast and a slow mode about 20% apart.  Elsewhere nothing is pinned. *)

let env_var = "PERFBENCH_CPU"

(* "Cpus_allowed_list:\t0-1,4" -> [0; 1; 4] *)
let allowed () =
  let key = "Cpus_allowed_list:" in
  match
    List.find_opt (String.starts_with ~prefix:key)
      (In_channel.with_open_text "/proc/self/status" In_channel.input_lines)
  with
  | None -> []
  | Some l ->
      let v = String.trim (String.sub l (String.length key) (String.length l - String.length key)) in
      List.concat_map
        (fun part ->
          match List.map int_of_string (String.split_on_char '-' part) with
          | [ a ] -> [ a ]
          | [ a; b ] -> List.init (b - a + 1) (fun i -> a + i)
          | _ -> [])
        (String.split_on_char ',' v)
  | exception _ -> []

let taskset () =
  List.find_map
    (fun d ->
      let p = Filename.concat d "taskset" in
      if d <> "" && Sys.file_exists p then Some p else None)
    (String.split_on_char ':' (Option.value ~default:"" (Sys.getenv_opt "PATH")))

(* (taskset, the benchmark's CPU, the server's CPU).  After the re-exec
   this process may use one CPU only, so the pair travels in [env_var]. *)
let plan =
  lazy
    (match (taskset (), Option.map (String.split_on_char ',') (Sys.getenv_opt env_var)) with
    | Some t, Some [ b; s ] -> Some (t, int_of_string b, int_of_string s)
    | Some t, None -> (
        let works cpu = Sys.command (Filename.quote_command t [ "-c"; string_of_int cpu; "true" ]) = 0 in
        match allowed () with
        | first :: _ :: _ as cpus ->
            let last = List.nth cpus (List.length cpus - 1) in
            if works first && works last then Some (t, first, last) else None
        | _ -> None)
    | _ -> None)

(* Re-execute this process on its CPU, once. *)
let self () =
  match Lazy.force plan with
  | Some (t, cpu, server) when Sys.getenv_opt env_var = None ->
      Unix.putenv env_var (Printf.sprintf "%d,%d" cpu server);
      Unix.execv t
        (Array.append
           [| t; "-c"; string_of_int cpu; Sys.executable_name |]
           (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)))
  | _ -> ()

(* The program and argv that start [argv] on the server's CPU. *)
let server argv =
  match Lazy.force plan with
  | Some (t, _, cpu) -> (t, Array.append [| t; "-c"; string_of_int cpu |] argv)
  | None -> (argv.(0), argv)
