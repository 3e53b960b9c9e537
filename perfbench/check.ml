(* Output checks: every answer is compared with the expectation its
   generator derived, never with another run of the engine.  Sets are
   rendered by [Conform.Case.render_set], the set syntax of the
   protocol's cqa reply and of the corpus pins. *)

module Tuple = Relational.Tuple

let render = Conform.Case.render_set

let diff what ~expected ~got =
  if Tuple.Set.equal expected got then None
  else
    Some
      (Printf.sprintf "%s: %d expected, %d answered (missing %s; extra %s)" what
         (Tuple.Set.cardinal expected) (Tuple.Set.cardinal got)
         (render (Tuple.Set.diff expected got))
         (render (Tuple.Set.diff got expected)))

let errors = function [] -> Ok () | p -> Error (String.concat "; " p)

let outcome (e : Gen.expect) (o : Query.Cqa.outcome) =
  match o.Query.Cqa.exhausted with
  | Some _ -> Error "partial outcome"
  | None ->
      errors
        (List.filter_map Fun.id
           [
             diff "certain" ~expected:e.Gen.certain ~got:o.Query.Cqa.consistent;
             diff "possible" ~expected:e.Gen.possible ~got:o.Query.Cqa.possible;
             diff "standard" ~expected:e.Gen.standard ~got:o.Query.Cqa.standard;
             (if o.Query.Cqa.repair_count = e.Gen.repairs then None
              else
                Some
                  (Printf.sprintf "repairs: expected %d, answered %d" e.Gen.repairs
                     o.Query.Cqa.repair_count));
           ])

let same_outcome (a : Query.Cqa.outcome) (b : Query.Cqa.outcome) =
  Tuple.Set.equal a.Query.Cqa.consistent b.Query.Cqa.consistent
  && Tuple.Set.equal a.Query.Cqa.possible b.Query.Cqa.possible
  && Tuple.Set.equal a.Query.Cqa.standard b.Query.Cqa.standard
  && a.Query.Cqa.repair_count = b.Query.Cqa.repair_count
  && a.Query.Cqa.exhausted = b.Query.Cqa.exhausted

(* ------------------------------------------------------------------ *)
(* Protocol replies, as the server writes them *)

let lines text = List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

let field lines prefix =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        Some (String.trim (String.sub l (String.length prefix) (String.length l - String.length prefix)))
      else None)
    lines

(* the two renderings from the first character where they differ *)
let from_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec first i = if i < n && a.[i] = b.[i] then first (i + 1) else i in
  let i = first 0 in
  let cut s = let k = min 60 (String.length s - i) in String.sub s i k in
  (i, cut a, cut b)

let cqa_reply (e : Gen.expect) text =
  let ls = lines text in
  let check name want =
    match field ls (name ^ ":") with
    | Some got when got = want -> None
    | Some got ->
        let i, w, g = from_difference want got in
        Some (Printf.sprintf "%s: from character %d, expected %S, answered %S" name i w g)
    | None -> Some (Printf.sprintf "%s: missing from the reply %S" name text)
  in
  errors
    (List.filter_map Fun.id
       [
         check "consistent" (render e.Gen.certain);
         check "possible" (render e.Gen.possible);
         check "standard" (render e.Gen.standard);
         check "repairs" (string_of_int e.Gen.repairs);
       ])

let check_reply ~violations text =
  let ls = lines text in
  let want = Printf.sprintf "%d violation(s)" violations in
  match List.rev ls with
  | last :: rest when last = want && List.length rest = violations -> Ok ()
  | _ -> Error (Printf.sprintf "check: expected %s, got %s" want (String.concat " | " ls))

let write_reply ~tuples ~violations text =
  let want = Printf.sprintf "ok: %d tuples, %d violation(s)" tuples violations in
  if lines text = [ want ] then Ok ()
  else Error (Printf.sprintf "write: expected %s, got %s" want (String.trim text))
