open Repro_txn
open Repro_history
module Digraph = Repro_graph.Digraph
module Obs = Repro_obs.Obs

let obs_updates = Obs.Counter.make "precedence.incremental_updates"

(* Growable precedence graph. The key to incrementality is the per-item
   reader/writer indexes: a new transaction only needs to be tested
   against the transactions that touched one of its items, not against
   every node, so one [add] costs O(conflicting pairs) instead of the
   O(n) pairwise scan [Precedence.build] pays per node — and a reconnect
   that extends an already-seen base history pays only for the delta. *)
type t = {
  mutable summaries : Summary.t array;  (* slots [0 .. n-1] live *)
  mutable succ : int list array;  (* reverse insertion order *)
  mutable mark : int array;  (* per-node visit stamp, see [next_stamp] *)
  mutable stamp : int;
  mutable n : int;
  mutable edges : int;
  mutable tentative_count : int;
  mutable acyclic : bool;
  index : (Names.t, int) Hashtbl.t;
  readers : (Item.t, int list) Hashtbl.t;  (* item -> nodes reading it *)
  writers : (Item.t, int list) Hashtbl.t;  (* item -> nodes writing it *)
}

let dummy_summary =
  Summary.make ~name:"\000builder-hole" ~kind:Summary.Base ~reads:[] ~writes:[]

let create () =
  {
    summaries = Array.make 8 dummy_summary;
    succ = Array.make 8 [];
    mark = Array.make 8 (-1);
    stamp = -1;
    n = 0;
    edges = 0;
    tentative_count = 0;
    acyclic = true;
    index = Hashtbl.create 64;
    readers = Hashtbl.create 64;
    writers = Hashtbl.create 64;
  }

let clone t =
  {
    summaries = Array.copy t.summaries;
    succ = Array.copy t.succ;
    mark = Array.copy t.mark;
    stamp = t.stamp;
    n = t.n;
    edges = t.edges;
    tentative_count = t.tentative_count;
    acyclic = t.acyclic;
    index = Hashtbl.copy t.index;
    readers = Hashtbl.copy t.readers;
    writers = Hashtbl.copy t.writers;
  }

let length t = t.n
let is_acyclic t = t.acyclic

let grow t =
  let cap = Array.length t.summaries in
  if t.n >= cap then begin
    let cap' = 2 * cap in
    let summaries = Array.make cap' dummy_summary in
    Array.blit t.summaries 0 summaries 0 t.n;
    t.summaries <- summaries;
    let succ = Array.make cap' [] in
    Array.blit t.succ 0 succ 0 t.n;
    t.succ <- succ;
    let mark = Array.make cap' (-1) in
    Array.blit t.mark 0 mark 0 t.n;
    t.mark <- mark
  end

let add_edge t u v =
  t.succ.(u) <- v :: t.succ.(u);
  t.edges <- t.edges + 1

let touching tbl item = match Hashtbl.find_opt tbl item with Some l -> l | None -> []

(* A stamp no node carries yet: a node is marked in the current scan iff
   [t.mark.(u) = stamp], so starting a scan clears no array. *)
let next_stamp t =
  t.stamp <- t.stamp + 1;
  t.stamp

(* Does some path [v -> ... -> v] exist? Any cycle created by adding [v]
   must pass through [v] (all new edges are incident to it), so a DFS
   from [v] suffices — and once cyclic the builder stays cyclic, since
   nodes are never removed. *)
let creates_cycle t v =
  let stamp = next_stamp t in
  let rec reaches_v u =
    List.exists
      (fun w ->
        if w = v then true
        else if t.mark.(w) = stamp then false
        else begin
          t.mark.(w) <- stamp;
          reaches_v w
        end)
      t.succ.(u)
  in
  reaches_v v

let add t (s : Summary.t) =
  if Hashtbl.mem t.index s.Summary.name then
    invalid_arg ("Builder.add: duplicate transaction name " ^ s.Summary.name);
  grow t;
  let v = t.n in
  t.summaries.(v) <- s;
  t.n <- v + 1;
  Hashtbl.replace t.index s.Summary.name v;
  if Summary.is_tentative s then t.tentative_count <- t.tentative_count + 1;
  (* Earlier transactions sharing an item with [s]; only these can gain
     an edge. Deduped because one partner may share several items. *)
  let stamp = next_stamp t in
  let partners = ref [] in
  let consider u =
    if t.mark.(u) <> stamp then begin
      t.mark.(u) <- stamp;
      partners := u :: !partners
    end
  in
  Item.Set.iter
    (fun x ->
      List.iter consider (touching t.writers x);
      List.iter consider (touching t.readers x))
    s.Summary.writeset;
  Item.Set.iter (fun x -> List.iter consider (touching t.writers x)) s.Summary.readset;
  (* Apply [Precedence.build]'s edge rules to each (earlier, new) pair.
     Same history: conflict means earlier -> later. Cross history: the
     reader of the other side's written item precedes it, and a pure
     write-write overlap falls back to base -> tentative exactly when the
     tentative -> base read edge is absent — the same order-sensitive
     check [build] makes. *)
  List.iter
    (fun u ->
      let su = t.summaries.(u) in
      if Summary.is_tentative su = Summary.is_tentative s then begin
        if Summary.conflicts su s then add_edge t u v
      end
      else begin
        let tn, bn, st, sb =
          if Summary.is_tentative s then (v, u, s, su) else (u, v, su, s)
        in
        let t_to_b = not (Item.Set.disjoint st.Summary.readset sb.Summary.writeset) in
        let b_to_t =
          (not (Item.Set.disjoint sb.Summary.readset st.Summary.writeset))
          || ((not (Item.Set.disjoint st.Summary.writeset sb.Summary.writeset))
             && not t_to_b)
        in
        if t_to_b then add_edge t tn bn;
        if b_to_t then add_edge t bn tn
      end)
    !partners;
  Item.Set.iter (fun x -> Hashtbl.replace t.readers x (v :: touching t.readers x)) s.Summary.readset;
  Item.Set.iter (fun x -> Hashtbl.replace t.writers x (v :: touching t.writers x)) s.Summary.writeset;
  if t.acyclic && creates_cycle t v then t.acyclic <- false;
  Obs.Counter.incr obs_updates

let add_all t summaries = List.iter (add t) summaries

let to_precedence t =
  (* [Precedence.build] numbers the tentative block first, then the base
     block, each in history (here: arrival) order — remap before
     materializing so node identifiers agree with a from-scratch build. *)
  let renum = Array.make t.n 0 in
  let next = ref 0 in
  for i = 0 to t.n - 1 do
    if Summary.is_tentative t.summaries.(i) then begin
      renum.(i) <- !next;
      incr next
    end
  done;
  for i = 0 to t.n - 1 do
    if not (Summary.is_tentative t.summaries.(i)) then begin
      renum.(i) <- !next;
      incr next
    end
  done;
  let summaries = Array.make t.n dummy_summary in
  let graph = Digraph.create t.n in
  for i = 0 to t.n - 1 do
    summaries.(renum.(i)) <- t.summaries.(i);
    List.iter (fun j -> Digraph.add_edge graph renum.(i) renum.(j)) (List.rev t.succ.(i))
  done;
  Precedence.of_parts ~summaries ~graph ~acyclic:(Some t.acyclic)
