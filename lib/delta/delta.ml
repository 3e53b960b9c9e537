module Atom = Relational.Atom
module Instance = Relational.Instance

type op = Insert of Atom.t | Delete of Atom.t

type t = op list

let empty = []
let insert a = Insert a
let delete a = Delete a
let atom = function Insert a | Delete a -> a

let apply ops d =
  List.fold_left
    (fun d -> function
      | Insert a -> Instance.add a d
      | Delete a -> Instance.remove a d)
    d ops

let preds ops =
  List.sort_uniq String.compare (List.map (fun op -> Atom.pred (atom op)) ops)

let net d d' =
  (Instance.atoms (Instance.diff d' d), Instance.atoms (Instance.diff d d'))

let effective ops d = net d (apply ops d)

let pp_op ppf = function
  | Insert a -> Fmt.pf ppf "+%a" Atom.pp a
  | Delete a -> Fmt.pf ppf "-%a" Atom.pp a

let pp ppf ops = Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") pp_op) ops
