(* Reference back-out heuristics, written as plainly as possible: every
   round takes an independent induced copy of the precedence graph minus
   the names removed so far, finds its cyclic nodes and reads degrees off
   successor and predecessor lists. [Backout.compute] must return exactly
   the same set for the matching strategies. *)

open Repro_history
open Repro_precedence
module Digraph = Repro_graph.Digraph
module Scc = Repro_graph.Scc

let name_of pg i = (Precedence.summary_of_node pg i).Summary.name

let reduced pg ~removed =
  Digraph.induced (Precedence.graph pg) (fun i -> not (Names.Set.mem (name_of pg i) removed))

(* While the reduced graph has a cycle, remove the cyclic tentative node
   with the largest (in + out) degree; the smallest identifier wins
   ties. *)
let greedy pg ~already_removed =
  let rec loop removed =
    let g = reduced pg ~removed in
    let degree i = List.length (Digraph.successors g i) + List.length (Digraph.predecessors g i) in
    match Scc.nodes_on_cycles g with
    | [] -> removed
    | cyclic -> (
      match List.filter (fun i -> Summary.is_tentative (Precedence.summary_of_node pg i)) cyclic with
      | [] -> invalid_arg "Backout_reference: cycle without tentative transaction"
      | first :: rest ->
        let best = List.fold_left (fun b i -> if degree i > degree b then i else b) first rest in
        loop (Names.Set.add (name_of pg best) removed))
  in
  Names.Set.diff (loop already_removed) already_removed

let greedy_degree pg = greedy pg ~already_removed:Names.Set.empty

(* Every two-cycle pairs a tentative with a base node; the tentative one
   is forced into B before the greedy rule runs. *)
let two_cycle_then_greedy pg =
  let forced =
    List.fold_left
      (fun acc (u, v) ->
        List.fold_left
          (fun acc i ->
            if Summary.is_tentative (Precedence.summary_of_node pg i) then
              Names.Set.add (name_of pg i) acc
            else acc)
          acc [ u; v ])
      Names.Set.empty
      (Scc.two_cycles (Precedence.graph pg))
  in
  Names.Set.union forced (greedy pg ~already_removed:forced)
