(** The repair preference order [<=_D] of Definition 6.

    [D' <=_D D''] iff (a) every null-free atom of [Delta(D, D')] belongs to
    [Delta(D, D'')], and (b) every atom of [Delta(D, D')] containing nulls
    either belongs to [Delta(D, D'')] itself, or some atom of
    [Delta(D, D'') \ Delta(D, D')] has the same predicate and agrees with it
    on all its non-null positions.  (The paper writes the nulls in the last
    positions for presentation only; the condition is positional.)

    The "belongs to [Delta(D, D'')] itself" disjunct in (b) is not spelled
    out in the paper's Definition 6, but it is forced by the examples:
    without it [<=_D] is not reflexive, and instances padded with gratuitous
    all-null tuples (e.g. [D ∪ {Student(34, null), Student(null, null)}] in
    Example 14's scenario) would be incomparable to the intended repairs and
    Example 15 would not have "only two repairs".  With it, [<=_D] is a
    preorder and the paper's Examples 15-20 come out exactly as printed
    (see test/test_repair.ml).

    Intuitively, an instance that differs from [D] by a null-padded tuple is
    preferred over one that differs by the same tuple padded with arbitrary
    constants (Example 17: [R(b, null)] beats every [R(b, d)]). *)

val leq : d:Relational.Instance.t -> Relational.Instance.t -> Relational.Instance.t -> bool
(** [leq ~d d' d''] is [D' <=_D D''].  Decided on [Delta(D, D')] and
    [Delta(D, D'')] as atom sets, the single definition that {!lt},
    {!minimal_among} and {!unbeaten} also use. *)

val lt : d:Relational.Instance.t -> Relational.Instance.t -> Relational.Instance.t -> bool
(** Strict: [leq d' d''] and not [leq d'' d']. *)

val minimal_among :
  d:Relational.Instance.t -> Relational.Instance.t list -> Relational.Instance.t list
(** The [<=_D]-minimal elements of a finite set of instances (duplicates
    removed first), sorted by [Instance.compare].  Each candidate's
    [Delta(D, .)] is computed once, so [n] candidates cost [n] symmetric
    differences plus [n^2] comparisons of small atom sets.  Minimality is
    component-local when the candidates' symmetric differences split over
    disjoint atom sets with no cross-covering
    ({!matches_non_null_positions}), which is what lets {!Decompose} filter
    per component instead of over the cross product. *)

val unbeaten :
  d:Relational.Instance.t ->
  by:Relational.Instance.t list ->
  Relational.Instance.t list ->
  Relational.Instance.t list
(** [unbeaten ~d ~by candidates] keeps, in order and with duplicates, the
    candidates [x] such that no [y] in [by] has [lt ~d y x].  Deltas are
    computed once per instance, as in {!minimal_among}. *)

val matches_non_null_positions : Relational.Atom.t -> Relational.Atom.t -> bool
(** Does the second atom agree with the first on every non-null position of
    the first (same predicate and arity required)?  This is the covering
    test of condition (b) of [<=_D]; {!Decompose} uses it to decide whether
    per-component minimality implies global minimality. *)

val delta : Relational.Instance.t -> Relational.Instance.t -> Relational.Instance.t
(** [Delta(D, D')], the symmetric difference. *)
