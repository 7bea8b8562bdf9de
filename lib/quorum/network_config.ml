type node_id = Scp.Quorum_set.node_id

module M = Map.Make (String)
module S = Scp.Quorum_set.Node_set

type t = Scp.Quorum_set.t M.t

let of_assoc l = M.of_seq (List.to_seq l)
let nodes t = List.map fst (M.bindings t)
let size t = M.cardinal t
let qset t n = M.find_opt n t
let override t n q = M.add n q t

let transitive_closure t start =
  let rec go visited = function
    | [] -> visited
    | n :: rest ->
        if S.mem n visited then go visited rest
        else
          let visited = S.add n visited in
          let next =
            match M.find_opt n t with
            | Some q -> Scp.Quorum_set.all_validators q
            | None -> []
          in
          go visited (next @ rest)
  in
  S.elements (go S.empty [ start ])
