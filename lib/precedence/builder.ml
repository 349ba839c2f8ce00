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
   that extends an already-seen base history pays only for the delta.
   Adjacency uses the graph kernel's row layout, so materializing is one
   bulk renumbering pass. *)
type t = {
  mutable summaries : Summary.t array;  (* slots [0 .. n-1] live *)
  mutable succ : int array array;  (* [u]'s successors: [succ.(u).(0 .. deg.(u) - 1)], insertion order *)
  mutable deg : int array;
  mutable mark : int array;  (* per-node visit stamp, see [next_stamp] *)
  mutable stamp : int;
  mutable n : int;
  mutable edges : int;
  mutable tentative_count : int;
  mutable acyclic : bool;
  index : (Names.t, int) Hashtbl.t;
  readers : (Item.t, int list) Hashtbl.t;  (* item -> nodes reading it, newest first *)
  writers : (Item.t, int list) Hashtbl.t;  (* item -> nodes writing it, newest first *)
}

let dummy_summary =
  Summary.make ~name:"\000builder-hole" ~kind:Summary.Base ~reads:[] ~writes:[]

let create () =
  {
    summaries = Array.make 8 dummy_summary;
    succ = Array.make 8 [||];
    deg = Array.make 8 0;
    mark = Array.make 8 (-1);
    stamp = -1;
    n = 0;
    edges = 0;
    tentative_count = 0;
    acyclic = true;
    (* Small: the merge service keeps one builder per component window,
       most of which hold a handful of transactions, and every merge
       copies all three tables. *)
    index = Hashtbl.create 16;
    readers = Hashtbl.create 16;
    writers = Hashtbl.create 16;
  }

let clone t =
  Obs.Span.with_ ~lane:Obs.Event.Base ~name:"precedence.fork" @@ fun () ->
  {
    t with
    summaries = Array.copy t.summaries;
    succ = Array.map Array.copy t.succ;
    deg = Array.copy t.deg;
    mark = Array.copy t.mark;
    index = Hashtbl.copy t.index;
    readers = Hashtbl.copy t.readers;
    writers = Hashtbl.copy t.writers;
  }

let length t = t.n
let is_acyclic t = t.acyclic

let grow t =
  let cap = Array.length t.summaries in
  if t.n >= cap then begin
    let extend a fill =
      let a' = Array.make (2 * cap) fill in
      Array.blit a 0 a' 0 t.n;
      a'
    in
    t.summaries <- extend t.summaries dummy_summary;
    t.succ <- extend t.succ [||];
    t.deg <- extend t.deg 0;
    t.mark <- extend t.mark (-1)
  end

let add_edge t u v =
  let k = t.deg.(u) in
  if k = Array.length t.succ.(u) then begin
    let row = Array.make (max 4 (2 * k)) 0 in
    Array.blit t.succ.(u) 0 row 0 k;
    t.succ.(u) <- row
  end;
  t.succ.(u).(k) <- v;
  t.deg.(u) <- k + 1;
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
   [add] never removes a node. *)
let creates_cycle t v =
  let stamp = next_stamp t in
  let rec reaches_v u =
    let row = t.succ.(u) in
    let rec scan k =
      k < t.deg.(u)
      &&
      let w = row.(k) in
      w = v
      || (t.mark.(w) <> stamp
         &&
         (t.mark.(w) <- stamp;
          reaches_v w))
      || scan (k + 1)
    in
    scan 0
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
  Obs.Span.with_ ~lane:Obs.Event.Base ~name:"precedence.materialize" @@ fun () ->
  (* [Precedence.build] numbers the tentative block first, then the base
     block, each in history (here: arrival) order — remap before
     materializing so node identifiers agree with a from-scratch build. *)
  let renum = Array.make t.n 0 in
  let next_tentative = ref 0 and next_base = ref t.tentative_count in
  for i = 0 to t.n - 1 do
    let next = if Summary.is_tentative t.summaries.(i) then next_tentative else next_base in
    renum.(i) <- !next;
    incr next
  done;
  let summaries = Array.make t.n dummy_summary in
  let rows = Array.make t.n [||] in
  for i = 0 to t.n - 1 do
    summaries.(renum.(i)) <- t.summaries.(i);
    let row = t.succ.(i) in
    let r = Array.make t.deg.(i) 0 in
    for k = 0 to t.deg.(i) - 1 do
      r.(k) <- renum.(row.(k))
    done;
    rows.(renum.(i)) <- r
  done;
  Precedence.of_parts ~summaries ~graph:(Digraph.of_rows rows) ~acyclic:(Some t.acyclic)

let as_base (s : Summary.t) = if Summary.is_tentative s then { s with Summary.kind = Summary.Base } else s

let commit t ~core ~appended =
  Obs.Span.with_ ~lane:Obs.Event.Base ~name:"precedence.relabel" @@ fun () ->
  (* [id] maps a fork node to its position in [core], or -1 if dropped. *)
  let id = Array.make t.n (-1) in
  let m =
    List.fold_left
      (fun k name ->
        match Hashtbl.find_opt t.index name with
        | Some u when id.(u) < 0 ->
          id.(u) <- k;
          k + 1
        | Some _ -> invalid_arg ("Builder.commit: " ^ name ^ " listed twice")
        | None -> invalid_arg ("Builder.commit: unknown transaction " ^ name))
      0 core
  in
  (* Relabel each survivor's row in place, dropping removed targets. Every
     surviving edge must point forward, or [core] is not a topological
     order of the survivors. *)
  let cap = Array.length t.summaries in
  let summaries = Array.make cap dummy_summary in
  let succ = Array.make cap [||] and deg = Array.make cap 0 in
  let unsorted = ref [] and edges = ref 0 in
  for u = 0 to t.n - 1 do
    let i = id.(u) in
    if i >= 0 then begin
      let row = t.succ.(u) in
      let d = ref 0 and sorted = ref true in
      for k = 0 to t.deg.(u) - 1 do
        let j = id.(row.(k)) in
        if j >= 0 then begin
          if j <= i then invalid_arg "Builder.commit: core is not a topological order of the fork";
          if !d > 0 && row.(!d - 1) > j then sorted := false;
          row.(!d) <- j;
          incr d
        end
      done;
      if not !sorted then unsorted := i :: !unsorted;
      succ.(i) <- row;
      deg.(i) <- !d;
      edges := !edges + !d;
      summaries.(i) <- as_base t.summaries.(u)
    end
  done;
  (* Fresh [add]s append each row in increasing target order. Rows the
     relabel left out of order (where a saved tentative node moved ahead
     of base nodes) are re-sorted by one counting pass over their edges:
     bucket the sources by target, then refill walking targets upward. *)
  if !unsorted <> [] then begin
    let start = Array.make (m + 1) 0 in
    List.iter
      (fun i ->
        for k = 0 to deg.(i) - 1 do
          let j = succ.(i).(k) in
          start.(j + 1) <- start.(j + 1) + 1
        done)
      !unsorted;
    for j = 1 to m do
      start.(j) <- start.(j) + start.(j - 1)
    done;
    let src = Array.make start.(m) 0 in
    let fill = Array.sub start 0 m in
    List.iter
      (fun i ->
        for k = 0 to deg.(i) - 1 do
          let j = succ.(i).(k) in
          src.(fill.(j)) <- i;
          fill.(j) <- fill.(j) + 1
        done;
        deg.(i) <- 0)
      !unsorted;
    for j = 0 to m - 1 do
      for p = start.(j) to start.(j + 1) - 1 do
        let i = src.(p) in
        succ.(i).(deg.(i)) <- j;
        deg.(i) <- deg.(i) + 1
      done
    done
  end;
  for u = 0 to t.n - 1 do
    if id.(u) <> u then begin
      let name = t.summaries.(u).Summary.name in
      if id.(u) >= 0 then Hashtbl.replace t.index name id.(u) else Hashtbl.remove t.index name
    end
  done;
  (* Item lists stay newest first, as fresh [add]s prepend them. *)
  let rec descending = function (a : int) :: (b :: _ as tl) -> a > b && descending tl | _ -> true in
  let relabel _ nodes =
    match List.filter_map (fun u -> if id.(u) >= 0 then Some id.(u) else None) nodes with
    | [] -> None
    | l -> Some (if descending l then l else List.sort (fun a b -> Int.compare b a) l)
  in
  Hashtbl.filter_map_inplace relabel t.readers;
  Hashtbl.filter_map_inplace relabel t.writers;
  t.summaries <- summaries;
  t.succ <- succ;
  t.deg <- deg;
  t.n <- m;
  t.edges <- !edges;
  t.tentative_count <- 0;
  t.acyclic <- true;
  add_all t appended

let equal a b =
  let same_summary (x : Summary.t) (y : Summary.t) =
    x.Summary.name = y.Summary.name
    && x.Summary.kind = y.Summary.kind
    && Item.Set.equal x.Summary.readset y.Summary.readset
    && Item.Set.equal x.Summary.writeset y.Summary.writeset
  in
  let row t u = Array.sub t.succ.(u) 0 t.deg.(u) in
  let bindings tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let rec nodes u =
    u >= a.n || (same_summary a.summaries.(u) b.summaries.(u) && row a u = row b u && nodes (u + 1))
  in
  a.n = b.n && a.edges = b.edges && a.tentative_count = b.tentative_count && a.acyclic = b.acyclic
  && nodes 0
  && bindings a.index = bindings b.index
  && bindings a.readers = bindings b.readers
  && bindings a.writers = bindings b.writers
