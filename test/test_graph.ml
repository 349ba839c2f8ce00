(* Tests for the digraph substrate: adjacency, SCC, cycle queries,
   topological sorting. *)

module Digraph = Repro_graph.Digraph
module Scc = Repro_graph.Scc
module Topo = Repro_graph.Topo

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let check_il = Alcotest.check (Alcotest.list Alcotest.int)

let ring n =
  let g = Digraph.create n in
  for i = 0 to n - 1 do
    Digraph.add_edge g i ((i + 1) mod n)
  done;
  g

let chain n =
  let g = Digraph.create n in
  for i = 0 to n - 2 do
    Digraph.add_edge g i (i + 1)
  done;
  g

let test_add_and_query () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 0 1;
  (* duplicate is idempotent *)
  checki "edge count" 2 (Digraph.edge_count g);
  checkb "mem" true (Digraph.mem_edge g 0 1);
  checkb "not mem" false (Digraph.mem_edge g 1 0);
  check_il "successors in insertion order" [ 1; 2 ] (Digraph.successors g 0);
  check_il "predecessors" [ 0 ] (Digraph.predecessors g 1);
  checki "nodes" 4 (Digraph.node_count g)

let test_out_of_range_rejected () =
  let g = Digraph.create 2 in
  Alcotest.check_raises "range check" (Invalid_argument "Digraph: node out of range") (fun () ->
      Digraph.add_edge g 0 5)

let test_induced () =
  let g = ring 4 in
  let g' = Digraph.induced g (fun i -> i <> 2) in
  checki "induced nodes" 3 (Digraph.node_count g');
  checki "induced edges" 2 (Digraph.edge_count g');
  checkb "acyclic after cut" true (Scc.is_acyclic g');
  (* the original is untouched *)
  checki "original intact" 4 (Digraph.edge_count g)

let test_transpose () =
  let g = chain 3 in
  let t = Digraph.transpose g in
  checkb "reversed edge" true (Digraph.mem_edge t 1 0);
  checkb "no forward edge" false (Digraph.mem_edge t 0 1)

let test_scc_ring () =
  let comps = Scc.components (ring 5) in
  checki "one component" 1 (List.length comps);
  checki "of size five" 5 (List.length (List.hd comps))

let test_scc_chain () =
  let comps = Scc.components (chain 5) in
  checki "five singleton components" 5 (List.length comps)

let test_scc_two_rings_bridged () =
  (* Nodes 0-2 form a ring, 3-5 form a ring, bridge 2 -> 3. *)
  let g = Digraph.create 6 in
  List.iter
    (fun (u, v) -> Digraph.add_edge g u v)
    [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ];
  let comps = Scc.components g in
  checki "two components" 2 (List.length comps);
  checki "six cyclic nodes" 6 (List.length (Scc.nodes_on_cycles g))

let test_self_loop_is_cycle () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 1 1;
  checkb "not acyclic" false (Scc.is_acyclic g);
  check_il "node 1 on a cycle" [ 1 ] (Scc.nodes_on_cycles g);
  checkb "no topo order" true (Topo.sort g = None)

let test_two_cycles () =
  let g = Digraph.create 4 in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) [ (0, 1); (1, 0); (2, 3); (3, 2); (0, 2) ];
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "both two-cycles found" [ (0, 1); (2, 3) ]
    (List.sort compare (Scc.two_cycles g))

let test_cycle_enumeration () =
  let g = Digraph.create 3 in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) [ (0, 1); (1, 0); (1, 2); (2, 1); (2, 0); (0, 2) ];
  (* Elementary cycles: three 2-cycles and two 3-cycles. *)
  checki "five elementary cycles" 5 (List.length (Scc.cycles g))

let test_cycle_limit () =
  let g = ring 6 in
  checki "limit respected" 1 (List.length (Scc.cycles ~limit:1 g))

let test_topo_chain () =
  check_il "chain order" [ 0; 1; 2; 3; 4 ] (Topo.sort_exn (chain 5))

let test_topo_deterministic_tie_break () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 2 3;
  Digraph.add_edge g 0 3;
  check_il "smallest-first" [ 0; 1; 2; 3 ] (Topo.sort_exn g)

let test_topo_cyclic_none () =
  checkb "cyclic graph has no order" true (Topo.sort (ring 3) = None)

let test_topo_respects_masks () =
  let g = ring 4 in
  let g' = Digraph.induced g (fun i -> i <> 0) in
  check_il "order of remaining" [ 1; 2; 3 ] (Topo.sort_exn g')

let test_weak_components () =
  let g = Digraph.create 6 in
  (* 0->1, 2->1 (direction ignored: one component), 3<->4 cycle, 5 isolated *)
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 2 1;
  Digraph.add_edge g 3 4;
  Digraph.add_edge g 4 3;
  Alcotest.(check (list (list int)))
    "components by smallest member" [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Digraph.weakly_connected_components g);
  (* masked nodes drop out *)
  let g' = Digraph.induced g (fun i -> i <> 1) in
  Alcotest.(check (list (list int)))
    "induced" [ [ 0 ]; [ 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Digraph.weakly_connected_components g')

(* Random-graph properties *)

let gen_graph =
  QCheck.make
    ~print:(fun edges -> String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges))
    QCheck.Gen.(list_size (int_range 0 40) (pair (int_bound 9) (int_bound 9)))

let graph_of_edges edges =
  let g = Digraph.create 10 in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
  g

let prop_scc_partition =
  QCheck.Test.make ~count:300 ~name:"SCCs partition the nodes" gen_graph (fun edges ->
      let g = graph_of_edges edges in
      let comps = Scc.components g in
      let all = List.concat comps in
      List.length all = 10 && List.sort compare all = List.init 10 Fun.id)

let prop_wcc_partition =
  QCheck.Test.make ~count:300 ~name:"weak components partition nodes; no edge crosses" gen_graph
    (fun edges ->
      let g = graph_of_edges edges in
      let comps = Digraph.weakly_connected_components g in
      let all = List.concat comps in
      (* A partition of the node set, each component ascending,
         components ordered by smallest member. *)
      List.sort compare all = List.init 10 Fun.id
      && List.for_all (fun c -> List.sort compare c = c) comps
      && (List.map List.hd comps |> fun heads -> List.sort compare heads = heads)
      && (* no edge crosses components *)
      let comp_of = Array.make 10 (-1) in
      List.iteri (fun ci c -> List.iter (fun v -> comp_of.(v) <- ci) c) comps;
      List.for_all (fun (u, v) -> comp_of.(u) = comp_of.(v)) (Digraph.edges g))

let prop_wcc_connected =
  QCheck.Test.make ~count:300 ~name:"weak components are undirected-connected" gen_graph
    (fun edges ->
      let g = graph_of_edges edges in
      (* Undirected BFS within each claimed component reaches all of it. *)
      let neighbors u =
        List.sort_uniq compare (Digraph.successors g u @ Digraph.predecessors g u)
      in
      List.for_all
        (fun comp ->
          match comp with
          | [] -> false
          | root :: _ ->
            let in_comp = List.sort compare comp in
            let visited = Hashtbl.create 16 in
            let rec bfs = function
              | [] -> ()
              | u :: rest ->
                if Hashtbl.mem visited u then bfs rest
                else begin
                  Hashtbl.add visited u ();
                  bfs (List.filter (fun v -> List.mem v in_comp) (neighbors u) @ rest)
                end
            in
            bfs [ root ];
            List.for_all (Hashtbl.mem visited) comp)
        (Digraph.weakly_connected_components g))

let prop_topo_respects_edges =
  QCheck.Test.make ~count:300 ~name:"topological order respects every edge" gen_graph
    (fun edges ->
      let g = graph_of_edges edges in
      match Topo.sort g with
      | None -> not (Scc.is_acyclic g)
      | Some order ->
        Scc.is_acyclic g
        && List.for_all
             (fun (u, v) ->
               let pos x =
                 let rec go i = function
                   | [] -> -1
                   | y :: rest -> if x = y then i else go (i + 1) rest
                 in
                 go 0 order
               in
               u = v || pos u < pos v)
             (Digraph.edges g))

let prop_cycles_are_cycles =
  QCheck.Test.make ~count:200 ~name:"enumerated cycles are genuine elementary cycles" gen_graph
    (fun edges ->
      let g = graph_of_edges edges in
      List.for_all
        (fun cycle ->
          match cycle with
          | [] -> false
          | first :: _ ->
            let distinct = List.sort_uniq compare cycle in
            List.length distinct = List.length cycle
            &&
            let rec walk = function
              | [ last ] -> Digraph.mem_edge g last first
              | u :: (v :: _ as rest) -> Digraph.mem_edge g u v && walk rest
              | [] -> false
            in
            walk cycle)
        (Scc.cycles ~limit:500 g))

(* Differential check of the array kernel against a naive model: an
   adjacency matrix over the live nodes, its transitive closure, and the
   deduplicated edge list in insertion order. The graph under test is a
   removal-mask view (made in two steps, as the back-out greedy does);
   every query must also agree with the independent [induced] copy. *)

let gen_masked_graph =
  QCheck.make
    ~print:(fun (n, edges, removed) ->
      Printf.sprintf "n=%d edges=[%s] removed=[%s]" n
        (String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges))
        (String.concat " " (List.map string_of_int removed)))
    QCheck.Gen.(
      let* n = int_range 1 10 in
      let* edges = list_size (int_range 0 45) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
      let* removed = list_size (int_bound 4) (int_bound (n - 1)) in
      return (n, edges, removed))

type model = {
  live : bool array;
  adj : bool array array;
  reach : bool array array;  (* a path of length >= 1 *)
  order : (int * int) list;  (* distinct live edges, first-insertion order *)
}

let model_of n edges removed =
  let live = Array.init n (fun v -> not (List.mem v removed)) in
  let order =
    List.fold_left (fun acc e -> if List.mem e acc then acc else e :: acc) [] edges
    |> List.rev
    |> List.filter (fun (u, v) -> live.(u) && live.(v))
  in
  let adj = Array.make_matrix n n false in
  List.iter (fun (u, v) -> adj.(u).(v) <- true) order;
  let reach = Array.map Array.copy adj in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  { live; adj; reach; order }

let live_nodes m = List.filter (fun v -> m.live.(v)) (List.init (Array.length m.live) Fun.id)

(* Smallest (rank, id) first among nodes whose live predecessors are all
   placed; [None] once none is ready but some remain. *)
let model_topo ?(rank = Fun.id) m =
  let placed = Array.make (Array.length m.live) false in
  let ready v =
    (not placed.(v)) && List.for_all (fun u -> placed.(u) || not m.adj.(u).(v)) (live_nodes m)
  in
  let rec go acc =
    match List.filter ready (live_nodes m) with
    | [] -> if List.length acc = List.length (live_nodes m) then Some (List.rev acc) else None
    | c :: cs ->
      let v = List.fold_left (fun b v -> if compare (rank v, v) (rank b, b) < 0 then v else b) c cs in
      placed.(v) <- true;
      go (v :: acc)
  in
  go []

(* The named checks that fail on [g], none when it matches the model.
   [pred_order] normalizes predecessor lists: an [induced] copy re-adds
   edges grouped by source, so only a view keeps their insertion order. *)
let disagreements ?(pred_order = Fun.id) m g =
  let nodes = live_nodes m in
  let same_scc u v = u = v || (m.reach.(u).(v) && m.reach.(v).(u)) in
  let comps = Scc.components g in
  let comp_index = Array.make (Array.length m.live) (-1) in
  List.iteri (fun i c -> List.iter (fun v -> comp_index.(v) <- i) c) comps;
  let rank v = (7 * v) mod 10 in
  let succ_model u = List.filter_map (fun (a, b) -> if a = u then Some b else None) m.order in
  let pred_model u = List.filter_map (fun (a, b) -> if b = u then Some a else None) m.order in
  let every_node f = List.for_all f nodes in
  let edges_model = List.concat_map (fun u -> List.map (fun v -> (u, v)) (succ_model u)) nodes in
  List.filter_map
    (fun (name, ok) -> if ok then None else Some name)
    [
      ("nodes", Digraph.nodes g = nodes);
      ("node_count", Digraph.node_count g = List.length nodes);
      ("edge_count", Digraph.edge_count g = List.length m.order);
      ("edges", Digraph.edges g = edges_model);
      ("successors", every_node (fun u -> Digraph.successors g u = succ_model u));
      ( "predecessors",
        every_node (fun u -> pred_order (Digraph.predecessors g u) = pred_order (pred_model u)) );
      ( "degrees",
        every_node (fun u ->
            Digraph.out_degree g u = List.length (succ_model u)
            && Digraph.in_degree g u = List.length (pred_model u)) );
      ("mem_edge", every_node (fun u -> every_node (fun v -> Digraph.mem_edge g u v = m.adj.(u).(v))));
      (* SCCs: a partition of the live nodes into mutual-reachability
         classes, listed in topological order of the condensation. *)
      ("scc partition", List.sort compare (List.concat comps) = nodes);
      ( "scc classes",
        every_node (fun u -> every_node (fun v -> same_scc u v = (comp_index.(u) = comp_index.(v)))) );
      ("scc order", List.for_all (fun (u, v) -> comp_index.(u) <= comp_index.(v)) m.order);
      ("nodes_on_cycles", Scc.nodes_on_cycles g = List.filter (fun v -> m.reach.(v).(v)) nodes);
      ("is_acyclic", Scc.is_acyclic g = every_node (fun v -> not m.reach.(v).(v)));
      ("two_cycles", Scc.two_cycles g = List.filter (fun (u, v) -> u < v && m.adj.(v).(u)) edges_model);
      ("topo", Topo.sort g = model_topo m);
      ("topo ~rank", Topo.sort ~rank g = model_topo ~rank m);
    ]

let prop_kernel_matches_model =
  QCheck.Test.make ~count:500 ~name:"kernel = naive reachability model; view = induced copy"
    gen_masked_graph (fun (n, edges, removed) ->
      let g = Digraph.create n in
      List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
      let first, rest = match removed with [] -> ([], []) | r :: rs -> ([ r ], rs) in
      let step = Digraph.view g in
      List.iter (Digraph.remove_node step) first;
      let masked = Digraph.view step in
      List.iter (Digraph.remove_node masked) rest;
      let copy = Digraph.induced g (fun v -> not (List.mem v removed)) in
      let m = model_of n edges removed in
      let failed =
        List.map (( ^ ) "view: ") (disagreements m masked)
        @ List.map (( ^ ) "induced: ") (disagreements ~pred_order:(List.sort compare) m copy)
        @ List.filter_map
            (fun (name, ok) -> if ok then None else Some name)
            [
              ("view components = induced components", Scc.components masked = Scc.components copy);
              ( "view weak components = induced weak components",
                Digraph.weakly_connected_components masked
                = Digraph.weakly_connected_components copy );
              (* removing nodes from a view leaves its source alone *)
              ("source intact", Digraph.nodes g = List.init n Fun.id);
              ( "first view intact",
                Digraph.nodes step = List.filter (fun v -> not (List.mem v first)) (List.init n Fun.id) );
            ]
      in
      failed = [] || QCheck.Test.fail_reportf "failed: %s" (String.concat ", " failed))

(* [Digraph.of_rows] is the graph that adds each row's edges in source
   order, so the model sees the deduplicated edges grouped by source. *)
let prop_of_rows_matches_model =
  QCheck.Test.make ~count:300 ~name:"of_rows = add_edge by source order (model)" gen_masked_graph
    (fun (n, edges, _) ->
      let distinct =
        List.rev
          (List.fold_left (fun acc e -> if List.mem e acc then acc else e :: acc) [] edges)
      in
      let by_source = List.stable_sort (fun (u, _) (v, _) -> compare u v) distinct in
      let rows =
        Array.init n (fun u ->
            Array.of_list (List.filter_map (fun (a, b) -> if a = u then Some b else None) by_source))
      in
      let failed = disagreements (model_of n by_source []) (Digraph.of_rows rows) in
      failed = [] || QCheck.Test.fail_reportf "failed: %s" (String.concat ", " failed))

let test_of_rows_rejects () =
  Alcotest.check_raises "repeated edge" (Invalid_argument "Digraph.of_rows: repeated edge")
    (fun () -> ignore (Digraph.of_rows [| [| 1; 1 |]; [||] |]));
  Alcotest.check_raises "out of range" (Invalid_argument "Digraph.of_rows: node out of range")
    (fun () -> ignore (Digraph.of_rows [| [| 2 |]; [||] |]))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "add and query" `Quick test_add_and_query;
          Alcotest.test_case "range check" `Quick test_out_of_range_rejected;
          Alcotest.test_case "induced subgraph" `Quick test_induced;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "weak components" `Quick test_weak_components;
          Alcotest.test_case "of_rows rejects bad rows" `Quick test_of_rows_rejects;
        ]
        @ qsuite [ prop_wcc_partition; prop_wcc_connected; prop_of_rows_matches_model ] );
      ( "scc",
        [
          Alcotest.test_case "ring" `Quick test_scc_ring;
          Alcotest.test_case "chain" `Quick test_scc_chain;
          Alcotest.test_case "two rings bridged" `Quick test_scc_two_rings_bridged;
          Alcotest.test_case "self-loop" `Quick test_self_loop_is_cycle;
          Alcotest.test_case "two-cycles" `Quick test_two_cycles;
          Alcotest.test_case "cycle enumeration" `Quick test_cycle_enumeration;
          Alcotest.test_case "cycle limit" `Quick test_cycle_limit;
        ]
        @ qsuite [ prop_scc_partition; prop_cycles_are_cycles; prop_kernel_matches_model ] );
      ( "topo",
        [
          Alcotest.test_case "chain" `Quick test_topo_chain;
          Alcotest.test_case "deterministic ties" `Quick test_topo_deterministic_tie_break;
          Alcotest.test_case "cyclic has none" `Quick test_topo_cyclic_none;
          Alcotest.test_case "masks" `Quick test_topo_respects_masks;
        ]
        @ qsuite [ prop_topo_respects_edges ] );
    ]
