(** Update batches over database instances.

    A delta is an ordered batch of tuple insertions and deletions — the
    update language of the incremental session engine ({!Session}).  Deltas
    are applied left to right, so a batch may insert and later delete the
    same atom (the pair cancels); {!effective} reports the {e net} effect
    against a concrete instance, which is what the incremental violation
    and plan maintenance consume (in the spirit of update reasoning over
    indefinite databases, Caroprese et al.). *)

type op =
  | Insert of Relational.Atom.t
  | Delete of Relational.Atom.t

type t = op list
(** Applied left to right. *)

val empty : t
val insert : Relational.Atom.t -> op
val delete : Relational.Atom.t -> op
val atom : op -> Relational.Atom.t

val apply : t -> Relational.Instance.t -> Relational.Instance.t
(** Instances are sets, so inserting a present atom and deleting an absent
    one are no-ops. *)

val preds : t -> string list
(** Predicates mentioned by the batch, deduplicated, sorted. *)

val effective :
  t -> Relational.Instance.t ->
  Relational.Atom.t list * Relational.Atom.t list
(** [effective delta d] is [(inserted, deleted)]: the atoms of
    [apply delta d] absent from [d], and the atoms of [d] absent from
    [apply delta d].  Cancelling pairs and redundant operations (inserting
    a present atom, deleting an absent one) disappear; both lists are in
    the instance's sorted atom order. *)

val net :
  Relational.Instance.t -> Relational.Instance.t ->
  Relational.Atom.t list * Relational.Atom.t list
(** [net d d'] is [(inserted, deleted)] between two instances: the atoms of
    [d'] absent from [d], and the atoms of [d] absent from [d'], in sorted
    atom order — {!effective} for a batch already applied, so a caller
    that needs the updated instance applies the batch once. *)

val pp : t Fmt.t
val pp_op : op Fmt.t
