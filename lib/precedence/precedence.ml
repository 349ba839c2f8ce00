open Repro_txn
open Repro_history
module Digraph = Repro_graph.Digraph
module Scc = Repro_graph.Scc
module Topo = Repro_graph.Topo
module Obs = Repro_obs.Obs

let obs_builds = Obs.Counter.make "precedence.builds"
let obs_cyclic = Obs.Counter.make "precedence.cyclic_graphs"
let obs_nodes = Obs.Dist.make "precedence.nodes"
let obs_edges = Obs.Dist.make "precedence.edges"

type t = {
  graph : Digraph.t;
  summaries : Summary.t array;
  index : (Names.t, int) Hashtbl.t;
  mutable acyclic : bool option;  (* cached first Scc run over [graph] *)
}

let build ~tentative ~base =
  Obs.Span.with_ ~lane:Obs.Event.Base ~name:"precedence.build" @@ fun () ->
  let summaries = Array.of_list (tentative @ base) in
  let n = Array.length summaries in
  let index = Hashtbl.create n in
  Array.iteri
    (fun i (s : Summary.t) ->
      if Hashtbl.mem index s.Summary.name then
        invalid_arg ("Precedence.build: duplicate transaction name " ^ s.Summary.name);
      Hashtbl.replace index s.Summary.name i)
    summaries;
  let graph = Digraph.create n in
  let m = List.length tentative in
  (* Intra-history edges: earlier conflicting transaction -> later one. *)
  let intra lo hi =
    for i = lo to hi - 1 do
      for j = i + 1 to hi do
        if Summary.conflicts summaries.(i) summaries.(j) then Digraph.add_edge graph i j
      done
    done
  in
  intra 0 (m - 1);
  intra m (n - 1);
  (* Cross edges: a transaction that read an item the other history's
     transaction updated saw the common original value, hence precedes. *)
  for i = 0 to m - 1 do
    for j = m to n - 1 do
      let tm = summaries.(i) and tb = summaries.(j) in
      let t_to_b = not (Item.Set.disjoint tm.Summary.readset tb.Summary.writeset) in
      if t_to_b then Digraph.add_edge graph i j;
      if not (Item.Set.disjoint tb.Summary.readset tm.Summary.writeset) then
        Digraph.add_edge graph j i;
      (* Blind-write adaptation: a write-write overlap with no read on
         either side produces no edge under the paper's literal rules,
         leaving the merged order of the two writes ambiguous. Order the
         base transaction first (the tentative write wins, matching the
         protocol's forwarded updates). With no blind writes this never
         fires: writeset ⊆ readset makes the overlap a two-cycle above. *)
      if (not t_to_b) && not (Item.Set.disjoint tm.Summary.writeset tb.Summary.writeset) then
        Digraph.add_edge graph j i
    done
  done;
  Obs.Counter.incr obs_builds;
  Obs.Dist.observe_int obs_nodes n;
  Obs.Dist.observe_int obs_edges (Digraph.edge_count graph);
  if Obs.Event.capturing () then
    Obs.Event.emit ~lane:Obs.Event.Base
      ~attrs:
        [ ("nodes", Obs.Event.Int n); ("edges", Obs.Event.Int (Digraph.edge_count graph)) ]
      "precedence.built";
  { graph; summaries; index; acyclic = None }

(* Trusted constructor for the incremental [Builder]: the caller vouches
   that [graph] holds exactly the edges [build] would have produced for
   [summaries] (tentative block first, then base, each in history order).
   The already-known acyclicity verdict is carried over so the first
   [is_acyclic] query costs nothing; the cyclic-graph counter is bumped
   here to keep its meaning — one tick per graph found cyclic — identical
   across both construction paths. *)
let of_parts ~summaries ~graph ~acyclic =
  let n = Array.length summaries in
  let index = Hashtbl.create n in
  Array.iteri (fun i (s : Summary.t) -> Hashtbl.replace index s.Summary.name i) summaries;
  Obs.Dist.observe_int obs_nodes n;
  Obs.Dist.observe_int obs_edges (Digraph.edge_count graph);
  if acyclic = Some false then Obs.Counter.incr obs_cyclic;
  { graph; summaries; index; acyclic }

let of_executions ~tentative ~base =
  build
    ~tentative:(Summary.of_execution ~kind:Summary.Tentative tentative)
    ~base:(Summary.of_execution ~kind:Summary.Base base)

let graph t = t.graph
let summaries t = t.summaries

let node_of t name =
  match Hashtbl.find_opt t.index name with Some i -> i | None -> raise Not_found

let summary_of_node t i = t.summaries.(i)

let is_acyclic t =
  match t.acyclic with
  | Some a -> a
  | None ->
    let a = Scc.is_acyclic t.graph in
    t.acyclic <- Some a;
    if not a then Obs.Counter.incr obs_cyclic;
    a

let tentative_on_cycles t =
  List.fold_left
    (fun acc i ->
      let s = t.summaries.(i) in
      if Summary.is_tentative s then Names.Set.add s.Summary.name acc else acc)
    Names.Set.empty
    (Scc.nodes_on_cycles t.graph)

let reduced t ~removed =
  let g = Digraph.view t.graph in
  Names.Set.iter
    (fun name -> Option.iter (Digraph.remove_node g) (Hashtbl.find_opt t.index name))
    removed;
  g

let merge_order t ~removed =
  Option.map
    (List.map (fun i -> t.summaries.(i).Summary.name))
    (Topo.sort (reduced t ~removed))

let pp ppf t =
  let pp_edge ppf (u, v) =
    Format.fprintf ppf "%s->%s" t.summaries.(u).Summary.name t.summaries.(v).Summary.name
  in
  Format.fprintf ppf "@[<v 2>precedence graph:@ %a@ edges: %a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Summary.pp)
    (Array.to_list t.summaries)
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") pp_edge)
    (Digraph.edges t.graph)
