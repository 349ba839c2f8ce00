(* Tarjan's algorithm with explicit stacks over int arrays. A DFS frame is
   a node plus the next stored-successor slot to scan, so the walk visits
   exactly what the textbook recursion visits, in the same order: roots in
   increasing order, successors in insertion order. [on_component] gets
   each component as it completes, members in discovery order. *)
let tarjan g on_component =
  let n = Digraph.size g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Array.make n 0 and sp = ref 0 in
  let frame_node = Array.make n 0 and frame_slot = Array.make n 0 and fp = ref 0 in
  let next_index = ref 0 in
  let enter v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    frame_node.(!fp) <- v;
    frame_slot.(!fp) <- 0;
    incr fp
  in
  let finish v =
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        decr sp;
        let w = stack.(!sp) in
        on_stack.(w) <- false;
        if w = v then w :: acc else pop (w :: acc)
      in
      on_component (pop [])
    end
  in
  for root = 0 to n - 1 do
    if Digraph.mem_node g root && index.(root) < 0 then begin
      enter root;
      while !fp > 0 do
        let top = !fp - 1 in
        let v = frame_node.(top) and k = frame_slot.(top) in
        if k < Digraph.stored_out_degree g v then begin
          frame_slot.(top) <- k + 1;
          let w = Digraph.stored_successor g v k in
          if Digraph.mem_node g w then
            if index.(w) < 0 then enter w
            else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          fp := top;
          finish v;
          if top > 0 then begin
            let u = frame_node.(top - 1) in
            lowlink.(u) <- min lowlink.(u) lowlink.(v)
          end
        end
      done
    end
  done

let components g =
  let comps = ref [] in
  tarjan g (fun comp -> comps := comp :: !comps);
  !comps

let is_cyclic_component g = function [ v ] -> Digraph.mem_edge g v v | _ -> true

let nodes_on_cycles g =
  let cyclic = Array.make (Digraph.size g) false in
  tarjan g (fun comp ->
      if is_cyclic_component g comp then List.iter (fun v -> cyclic.(v) <- true) comp);
  List.filter (fun v -> cyclic.(v)) (Digraph.nodes g)

exception Cyclic

let is_acyclic g =
  match tarjan g (fun comp -> if is_cyclic_component g comp then raise Cyclic) with
  | () -> true
  | exception Cyclic -> false

(* One pass over the edges: stamp [u]'s predecessors with [u], then keep
   each later successor that carries the stamp. *)
let two_cycles g =
  let mark = Array.make (Digraph.size g) (-1) in
  let found = ref [] in
  for u = 0 to Digraph.size g - 1 do
    Digraph.iter_predecessors g u (fun p -> mark.(p) <- u);
    Digraph.iter_successors g u (fun v -> if v > u && mark.(v) = u then found := (u, v) :: !found)
  done;
  List.rev !found

exception Limit_reached

let cycles ?(limit = 10_000) g =
  let found = ref [] in
  let count = ref 0 in
  let emit cycle =
    found := cycle :: !found;
    incr count;
    if !count >= limit then raise Limit_reached
  in
  let comp_of = Array.make (Digraph.size g) (-1) in
  List.iteri (fun i comp -> List.iter (fun v -> comp_of.(v) <- i) comp) (components g);
  (* Enumerate elementary cycles whose smallest node is [start]: DFS through
     nodes >= start staying within start's component. *)
  let enumerate start =
    let rec dfs v path on_path =
      List.iter
        (fun w ->
          if w = start then emit (List.rev (v :: path))
          else if w > start && (not (List.mem w on_path)) && comp_of.(start) = comp_of.(w) then
            dfs w (v :: path) (w :: on_path))
        (Digraph.successors g v)
    in
    dfs start [] [ start ]
  in
  (try List.iter enumerate (Digraph.nodes g) with Limit_reached -> ());
  List.rev !found
