type org = { name : string; validators : Network_config.node_id list }

let check_org config org = fst (Intersection.check ~byzantine:org.validators config)

let critical_orgs config orgs =
  List.filter
    (fun org ->
      match check_org config org with
      | Intersection.Disjoint _ -> true
      | Intersection.Intersecting | Intersection.No_quorum -> false)
    orgs
