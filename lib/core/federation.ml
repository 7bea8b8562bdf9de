module Node_map = Map.Make (String)

type statements = Types.statement Node_map.t

let is_quorum ~local_qset statements pred =
  let module S = Quorum_set.Node_set in
  let members =
    Node_map.fold (fun node st acc -> if pred st then S.add node acc else acc) statements S.empty
  in
  let qset_of node = Some (Node_map.find node statements).Types.quorum_set in
  let quorum = Quorum_set.greatest_quorum ~qset_of members in
  Quorum_set.is_quorum_slice local_qset (fun v -> S.mem v quorum)

let is_v_blocking_set ~local_qset statements pred =
  let in_set v =
    match Node_map.find_opt v statements with Some st -> pred st | None -> false
  in
  Quorum_set.is_v_blocking local_qset in_set

let federated_accept ~local_qset statements ~voted ~accepted =
  is_v_blocking_set ~local_qset statements accepted
  || is_quorum ~local_qset statements (fun st -> voted st || accepted st)

let federated_ratify ~local_qset statements pred =
  is_quorum ~local_qset statements pred
