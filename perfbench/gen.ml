(* Seeded input generators with closed-form expectations.

   Every generator emits surface text (a complete .cqa file, or protocol
   lines for the serve workload) together with what a correct engine must
   answer: the repair count, the |=_N violation count and the certain,
   possible and standard answer sets of the file's one query.  The
   expectations follow from the independent-choice structure of each
   shape, never from running the engine.  The generators live here, not
   in lib/, so the benchmark's inputs cannot change when the library
   does. *)

(* ------------------------------------------------------------------ *)
(* splitmix64: a fixed, version-independent stream per seed *)

module Rng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.(mul (of_int (seed + 1)) 0x9E3779B97F4A7C15L) }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let int t bound = Int64.(to_int (unsigned_rem (next t) (of_int bound)))
  let range t lo hi = lo + int t (hi - lo + 1)

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done

  let salt t =
    String.init 4 (fun _ -> "abcdefghijklmnopqrstuvwxyz".[int t 26])
end

(* Canonical mode reproduces the committed conformance corpus byte for
   byte (index names, first-k picks, file order); seeded mode salts every
   name, draws the picks and shuffles the facts. *)
type mode = Canonical | Seeded of Rng.t

let salt = function Canonical -> "" | Seeded r -> "_" ^ Rng.salt r

(* [assign mode i n]: which of [n] targets item [i] points at *)
let assign mode i n = match mode with Canonical -> i mod n | Seeded r -> Rng.int r n

(* [k] distinct indices below [n] *)
let choose mode k n =
  match mode with
  | Canonical -> List.init k Fun.id
  | Seeded r ->
      let a = Array.init n Fun.id in
      Rng.shuffle r a;
      List.sort compare (Array.to_list (Array.sub a 0 k))

(* ------------------------------------------------------------------ *)
(* Expectations *)

module Tuple = Relational.Tuple

type expect = {
  repairs : int;
  violations : int;
  certain : Tuple.Set.t;
  possible : Tuple.Set.t;
  standard : Tuple.Set.t;
}

let limit = 1 lsl 62

(* Repair counts stay below 2^62: past it both this closed form and the
   engine's product would wrap silently. *)
let mul a b =
  if b <> 0 && a > (limit - 1) / b then
    invalid_arg "Gen.mul: repair count reaches 2^62";
  a * b

let rec pow b e = if e <= 0 then 1 else mul b (pow b (e - 1))
let row vs = Tuple.make (List.map Relational.Value.str vs)
let set = Tuple.Set.of_list

(* One constraint family over its own relations, with its one query. *)
type part = {
  relations : string list;
  facts : string list;
  updates : string list;
  constraints : string list;
  query : string;  (* query name *)
  query_decl : string;
  repairs : int;
  violations : int;
  certain : Tuple.Set.t;
  possible : Tuple.Set.t;
  standard : Tuple.Set.t;
  tuples : int;  (* facts of the final instance *)
}

type request = {
  shape : string;
  text : string;
  query : string;
  tuples : int;
  expect : expect;
}

let fact p args = Printf.sprintf "%s(%s)." p (String.concat ", " args)

(* ------------------------------------------------------------------ *)
(* FK chain P <- C <- G.  An orphan child C(cx, miss) repairs by deletion
   or by inserting the |=_N-vacuous P(miss, null); an orphan grandchild
   G(gx, cmiss) by deletion or by inserting C(cmiss, null).  Independent
   two-way choices: 2^(oc + og).  Routed to the shifted program tier. *)

let fk_chain mode ~parents ~children ~orphan_children:oc
    ~orphan_grandchildren:og =
  let s = salt mode in
  let t p i = Printf.sprintf "%s%d%s" p i s in
  let p = List.init parents (fun i -> fact "P" [ t "p" i; t "d" i ]) in
  let c =
    List.init children (fun i -> fact "C" [ t "c" i; t "p" (assign mode i parents) ])
  in
  let g =
    List.init children (fun i -> fact "G" [ t "g" i; t "c" (assign mode i children) ])
  in
  let ocs = List.init oc (fun i -> fact "C" [ t "cx" i; t "miss" i ]) in
  let ogs = List.init og (fun i -> fact "G" [ t "gx" i; t "cmiss" i ]) in
  let base = List.init children (fun i -> row [ t "c" i ]) in
  let orphaned = List.init oc (fun i -> row [ t "cx" i ]) in
  let inserted = List.init og (fun i -> row [ t "cmiss" i ]) in
  {
    relations = [ "relation P(k, d)."; "relation C(k, p)."; "relation G(k, c)." ];
    facts = p @ c @ g @ ocs @ ogs;
    updates = [];
    constraints =
      [ "constraint fk_c: C(X, Y) -> P(Y, D)."; "constraint fk_g: G(X, Y) -> C(Y, D)." ];
    query = "children";
    query_decl = "query children(X): exists Y. C(X, Y).";
    repairs = pow 2 (oc + og);
    violations = oc + og;
    certain = set base;
    possible = set (base @ orphaned @ inserted);
    standard = set (base @ orphaned);
    tuples = parents + (2 * children) + oc + og;
  }

(* ------------------------------------------------------------------ *)
(* FD clusters on R(k, a): cluster j holds [widths_j] rows sharing a key;
   a repair keeps one row per cluster: prod widths.  Each cluster of
   width w is w(w-1) ordered violating pairs.  Routed to the direct
   tier. *)

let fd_cluster mode ~rows ~widths =
  let s = salt mode in
  let t p i = Printf.sprintf "%s%d%s" p i s in
  let keys = choose mode (List.length widths) rows in
  let base = List.init rows (fun i -> fact "R" [ t "k" i; t "v" i ]) in
  let dup j i = Printf.sprintf "w%d_%d%s" j i s in
  let dups =
    List.concat
      (List.map2
         (fun k w -> List.init (w - 1) (fun j -> fact "R" [ t "k" k; dup j k ]))
         keys widths)
  in
  let all_rows =
    List.init rows (fun i -> row [ t "k" i; t "v" i ])
    @ List.concat
        (List.map2
           (fun k w -> List.init (w - 1) (fun j -> row [ t "k" k; dup j k ]))
           keys widths)
  in
  let clean =
    List.filter_map
      (fun i -> if List.mem i keys then None else Some (row [ t "k" i; t "v" i ]))
      (List.init rows Fun.id)
  in
  {
    relations = [ "relation R(k, a)." ];
    facts = base @ dups;
    updates = [];
    constraints = [ "constraint fd: R(K, A), R(K, B) -> A = B." ];
    query = "vals";
    query_decl = "query vals(K, A): R(K, A).";
    repairs = List.fold_left mul 1 widths;
    violations = List.fold_left (fun acc w -> acc + (w * (w - 1))) 0 widths;
    certain = set clean;
    possible = set all_rows;
    standard = set all_rows;
    tuples = rows + List.fold_left (fun acc w -> acc + w - 1) 0 widths;
  }

(* ------------------------------------------------------------------ *)
(* The RIC cycle A -> B -> C -> A.  A dangling A(d) repairs by deletion
   or by the insertion cascade around the cycle: 2^dangling.  Routed to
   the disjunctive program tier. *)

let cyclic_ric mode ~complete ~dangling =
  let a, b, c = ("A", "B", "C") in
  let s = salt mode in
  let t p i = Printf.sprintf "%s%d%s" p i s in
  let triples =
    List.concat
      (List.init complete (fun i ->
           [ fact a [ t "a" i ]; fact b [ t "a" i ]; fact c [ t "a" i ] ]))
  in
  let loose = List.init dangling (fun i -> fact a [ t "d" i ]) in
  let closed = List.init complete (fun i -> row [ t "a" i ]) in
  let extra = List.init dangling (fun i -> row [ t "d" i ]) in
  let ric n x y = Printf.sprintf "constraint %s: %s(X) -> %s(X)." n x y in
  {
    relations = List.map (fun r -> Printf.sprintf "relation %s(x)." r) [ a; b; c ];
    facts = triples @ loose;
    updates = [];
    constraints = [ ric "ab" a b; ric "bc" b c; ric "ca" c a ];
    query = "members";
    query_decl = Printf.sprintf "query members(X): %s(X)." a;
    repairs = pow 2 dangling;
    violations = dangling;
    certain = set closed;
    possible = set (closed @ extra);
    standard = set (closed @ extra);
    tuples = (3 * complete) + dangling;
  }

(* ------------------------------------------------------------------ *)
(* Example 20's conflict: the NNC sits on the RIC's existential
   attribute, so an unassigned employee keeps Emp(u) by inserting
   Dept(u, c) for any constant c of the active domain, or is deleted:
   (|dom| + 1) ways.  An unaudited assignment is a two-way choice.
   Routed to the enumeration tier. *)

let nnc_ric mode ~staff ~unassigned:u ~unaudited:a =
  let s = salt mode in
  let t p i = Printf.sprintf "%s%d%s" p i s in
  let ok =
    List.concat
      (List.init staff (fun i ->
           [ fact "Emp" [ t "s" i ]; fact "Dept" [ t "s" i; t "dep" i ]; fact "Audit" [ t "s" i ] ]))
  in
  let loose = List.init u (fun i -> fact "Emp" [ t "u" i ]) in
  let gaps =
    List.concat
      (List.init a (fun i -> [ fact "Emp" [ t "w" i ]; fact "Dept" [ t "w" i; t "dw" i ] ]))
  in
  let dom = (2 * staff) + u + (2 * a) in
  let kept = List.init staff (fun i -> row [ t "s" i ]) in
  let all =
    kept @ List.init u (fun i -> row [ t "u" i ]) @ List.init a (fun i -> row [ t "w" i ])
  in
  {
    relations = [ "relation Emp(e)."; "relation Dept(e, d)."; "relation Audit(e)." ];
    facts = ok @ loose @ gaps;
    updates = [];
    constraints =
      [
        "constraint ric: Emp(X) -> Dept(X, Y).";
        "constraint uic: Dept(X, Y) -> Audit(X).";
        "not_null Dept[2].";
      ];
    query = "staff";
    query_decl = "query staff(X): Emp(X).";
    repairs = mul (pow (dom + 1) u) (pow 2 a);
    violations = u + a;
    certain = set kept;
    possible = set all;
    standard = set all;
    tuples = (3 * staff) + u + (2 * a);
  }

(* ------------------------------------------------------------------ *)
(* P -> Q with an update stream: a consistent base of P/Q pairs, then
   [added] consistent pairs, [dangling] lone P inserts and [revoked]
   deleted Q supports.  Each dangling insert and revoked support is a
   two-way choice.  Routed to the shifted program tier. *)

let session_stream mode ~base ~added ~dangling ~revoked =
  let s = salt mode in
  let t p i = Printf.sprintf "%s%d%s" p i s in
  let pairs = List.concat (List.init base (fun i -> [ fact "P" [ t "b" i ]; fact "Q" [ t "b" i ] ])) in
  let gone = choose mode revoked base in
  let stream =
    List.concat
      (List.init added (fun i ->
           [ "insert " ^ fact "P" [ t "n" i ]; "insert " ^ fact "Q" [ t "n" i ] ]))
    @ List.init dangling (fun i -> "insert " ^ fact "P" [ t "x" i ])
    @ List.map (fun i -> "delete " ^ fact "Q" [ t "b" i ]) gone
  in
  let kept =
    List.filter_map
      (fun i -> if List.mem i gone then None else Some (row [ t "b" i ]))
      (List.init base Fun.id)
    @ List.init added (fun i -> row [ t "n" i ])
  in
  let contested =
    List.map (fun i -> row [ t "b" i ]) gone @ List.init dangling (fun i -> row [ t "x" i ])
  in
  {
    relations = [ "relation P(x)."; "relation Q(x)." ];
    facts = pairs;
    updates = stream;
    constraints = [ "constraint pq: P(X) -> Q(X)." ];
    query = "members";
    query_decl = "query members(X): P(X).";
    repairs = pow 2 (dangling + revoked);
    violations = dangling + revoked;
    certain = set kept;
    possible = set (kept @ contested);
    standard = set (kept @ contested);
    tuples = (2 * base) + (2 * added) + dangling - revoked;
  }

(* ------------------------------------------------------------------ *)
(* Assembling requests *)

(* The corpus layout: relations, facts, constraints, query, updates; the
   seeded mode shuffles the facts. *)
let request mode ~shape (p : part) =
  let facts =
    match mode with
    | Canonical -> p.facts
    | Seeded r ->
        let a = Array.of_list p.facts in
        Rng.shuffle r a;
        Array.to_list a
  in
  let lines = p.relations @ facts @ p.constraints @ [ p.query_decl ] @ p.updates in
  {
    shape;
    text = String.concat "\n" lines ^ "\n";
    query = p.query;
    tuples = p.tuples;
    expect =
      {
        repairs = p.repairs;
        violations = p.violations;
        certain = p.certain;
        possible = p.possible;
        standard = p.standard;
      };
  }

(* program_stream: one small cold request over one of five shapes, 20-100
   facts and 4-24 conflicts.  The Example 20 shape stays at the small end
   (20-40 facts, 4-8 conflicts): its enumeration ranges over the whole
   active domain for every conflict.  Every size (shape, facts, conflicts
   and how they split) comes from [sizes], a stream fixed for all seeds,
   so every seed answers the same mix at the same cost; [rng], the seed's
   stream, picks only the names, the conflicting tuples and the fact
   order. *)
let program_request ~sizes rng =
  let mode = Seeded rng in
  let shape = Rng.int sizes 5 in
  let conflicts = if shape = 4 then Rng.range sizes 4 8 else Rng.range sizes 4 24 in
  let target = if shape = 4 then Rng.range sizes 20 40 else Rng.range sizes 20 100 in
  let room = max 3 (target - conflicts) in
  let shape, part =
    match shape with
    | 0 ->
        let oc = Rng.range sizes 1 (conflicts - 1) in
        let children = max 1 (room / 3) in
        ( "fk_chain",
          fk_chain mode ~parents:(max 1 (room - (2 * children))) ~children
            ~orphan_children:oc ~orphan_grandchildren:(conflicts - oc) )
    | 1 ->
        let widths = List.init conflicts (fun _ -> Rng.range sizes 2 3) in
        let extra = List.fold_left (fun acc w -> acc + w - 1) 0 widths in
        ("fd_cluster", fd_cluster mode ~rows:(max conflicts (target - extra)) ~widths)
    | 2 ->
        ("cyclic_ric", cyclic_ric mode ~complete:(max 1 (room / 3)) ~dangling:conflicts)
    | 3 ->
        let dangling = Rng.range sizes 0 conflicts in
        let revoked = conflicts - dangling in
        let added = Rng.range sizes 0 3 in
        ( "session_stream",
          session_stream mode
            ~base:(max (revoked + 1) ((target - dangling - (2 * added)) / 2))
            ~added ~dangling ~revoked )
    | _ ->
        let u = Rng.range sizes 1 2 in
        let a = conflicts - u in
        ( "nnc_ric",
          nnc_ric mode ~staff:(max 1 ((target - u - (2 * a)) / 3)) ~unassigned:u
            ~unaudited:a )
  in
  request mode ~shape part

let program_stream rng count =
  let sizes = Rng.make 0 in
  List.init count (fun _ -> program_request ~sizes rng)

(* ------------------------------------------------------------------ *)
(* serve_sessions: a P -> Q base with a static FD slice, and per-client
   session scripts whose expectations come from a model of the session's
   P/Q state. *)

type serve_base = {
  base_text : string;
  base_keys : string array;  (* b_i: each has P(b_i) and Q(b_i) *)
  base_tuples : int;
  fd_repairs : int;
  fd_violations : int;
}

(* The session's P/Q state relative to the base. *)
type model = {
  p_extra : string list;  (* lone P keys inserted without a Q *)
  q_missing : string list;  (* base keys whose Q was deleted *)
}

type op =
  | Write of { insert : bool; pred : string; key : string }
  | Cqa
  | Check

type step = { line : string; op : op; after : model }

let serve_base rng =
  let pairs = 900 and fd_rows = 200 in
  let mode = Seeded rng in
  let s = salt mode in
  let keys = Array.init pairs (fun i -> Printf.sprintf "b%d%s" i s) in
  let fd = fd_cluster mode ~rows:fd_rows ~widths:[ 2; 2 ] in
  let facts =
    Array.to_list (Array.map (fun k -> fact "P" [ k ]) keys)
    @ Array.to_list (Array.map (fun k -> fact "Q" [ k ]) keys)
    @ fd.facts
  in
  let a = Array.of_list facts in
  Rng.shuffle rng a;
  let lines =
    [ "relation P(x)."; "relation Q(x)." ]
    @ fd.relations @ Array.to_list a
    @ [ "constraint pq: P(X) -> Q(X)." ]
    @ fd.constraints
    @ [ "query members(X): P(X)." ]
  in
  {
    base_text = String.concat "\n" lines ^ "\n";
    base_keys = keys;
    base_tuples = (2 * pairs) + fd.tuples;
    fd_repairs = fd.repairs;
    fd_violations = fd.violations;
  }

let empty_model = { p_extra = []; q_missing = [] }

(* One round: a lone P(x) and a revoked base support Q(b) (two
   violations), then both healed, so every round starts from the base and
   costs the same.  Every write is followed by a cqa read (which
   re-plans) and by cheaper reads (plan kept, components cached): 4
   writes, 4 re-planning reads, 5 cached reads and 1 check, so the median
   request and the median read both fall among the cached reads, away
   from a class boundary.  [x] is fresh per round and shared by the
   clients, so their components coincide and the shared cache serves
   across sessions; [b] comes from the client's own stream. *)
let round ~x ~b m =
  let w insert pred key after =
    {
      line = Printf.sprintf "%s %s(%s)" (if insert then "insert" else "delete") pred key;
      op = Write { insert; pred; key };
      after;
    }
  in
  let m1 = { m with p_extra = x :: m.p_extra } in
  let m2 = { m1 with q_missing = b :: m1.q_missing } in
  let m3 = { m2 with q_missing = m.q_missing } in
  let cqa m = { line = "cqa members"; op = Cqa; after = m } in
  let check m = { line = "check"; op = Check; after = m } in
  ( [
      w true "P" x m1;
      cqa m1;
      cqa m1;
      check m1;
      w false "Q" b m2;
      cqa m2;
      cqa m2;
      cqa m2;
      w true "Q" b m3;
      cqa m3;
      cqa m3;
      w false "P" x m;
      cqa m;
      cqa m;
    ],
    m )

(* [rounds] rounds for each of [clients] clients. *)
let serve_scripts rng base ~clients ~rounds =
  let s = salt (Seeded rng) in
  let xs = Array.init rounds (fun r -> Printf.sprintf "x%d%s" r s) in
  List.init clients (fun _ ->
      let crng = Rng.make (Rng.int rng 1_000_000_000) in
      let rec go r m acc =
        if r = rounds then List.concat (List.rev acc)
        else
          let b = base.base_keys.(Rng.int crng (Array.length base.base_keys)) in
          let steps, m = round ~x:xs.(r) ~b m in
          go (r + 1) m (steps :: acc)
      in
      Array.of_list (go 0 empty_model []))

(* Closed forms over a model state: P = base + lone keys, Q = base -
   revoked keys. *)
let serve_expect base m =
  let keys = Array.to_list base.base_keys in
  let both = List.filter (fun k -> not (List.mem k m.q_missing)) keys in
  let p = keys @ m.p_extra in
  let dangling = List.length m.p_extra + List.length m.q_missing in
  let rows l = set (List.map (fun k -> row [ k ]) l) in
  {
    repairs = mul (pow 2 dangling) base.fd_repairs;
    violations = dangling + base.fd_violations;
    certain = rows both;
    possible = rows p;
    standard = rows p;
  }

let serve_tuples base m = base.base_tuples + List.length m.p_extra - List.length m.q_missing
