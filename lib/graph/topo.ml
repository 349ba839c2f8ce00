(* Kahn's algorithm over an indegree array, with a sorted-set frontier for
   deterministic tie-breaking. *)
let sort ?(rank = Fun.id) g =
  let n = Digraph.size g in
  let key = Array.init n rank in
  let module Frontier = Set.Make (struct
    type t = int

    let compare a b = match Int.compare key.(a) key.(b) with 0 -> Int.compare a b | c -> c
  end) in
  let indegree = Array.init n (Digraph.in_degree g) in
  let initial =
    List.fold_left
      (fun acc v -> if indegree.(v) = 0 then Frontier.add v acc else acc)
      Frontier.empty (Digraph.nodes g)
  in
  let rec drain frontier acc taken =
    match Frontier.min_elt_opt frontier with
    | None -> if taken = Digraph.node_count g then Some (List.rev acc) else None
    | Some v ->
      let frontier = ref (Frontier.remove v frontier) in
      Digraph.iter_successors g v (fun w ->
          indegree.(w) <- indegree.(w) - 1;
          if indegree.(w) = 0 then frontier := Frontier.add w !frontier);
      drain !frontier (v :: acc) (taken + 1)
  in
  drain initial [] 0

let sort_exn g =
  match sort g with
  | Some order -> order
  | None -> invalid_arg "Topo.sort_exn: graph is cyclic"
