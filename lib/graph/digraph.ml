(* One direction of adjacency: node [u]'s neighbours are
   [nbrs.(u).(0 .. deg.(u) - 1)], in insertion order. Arrays grow by
   doubling, so nothing here is quadratic in the node count. *)
type adj = { nbrs : int array array; deg : int array }

(* Edge storage, shared between a graph and its views. *)
type store = { succ : adj; pred : adj; mutable edges : int }

type t = {
  store : store;
  alive : bool array;  (* this value's own live mask *)
  mutable live : int;
}

let adj_create n = { nbrs = Array.make n [||]; deg = Array.make n 0 }

let create n =
  {
    store = { succ = adj_create n; pred = adj_create n; edges = 0 };
    alive = Array.make n true;
    live = n;
  }

let size g = Array.length g.alive
let node_count g = g.live
let mem_node g u = u >= 0 && u < size g && g.alive.(u)
let check g u = if u < 0 || u >= size g then invalid_arg "Digraph: node out of range"

let stored_out_degree g u = g.store.succ.deg.(u)
let stored_successor g u k = g.store.succ.nbrs.(u).(k)

let stored_mem a u v =
  let row = a.nbrs.(u) in
  let rec go k = k >= 0 && (row.(k) = v || go (k - 1)) in
  go (a.deg.(u) - 1)

let push a u v =
  let k = a.deg.(u) in
  if k = Array.length a.nbrs.(u) then begin
    let row = Array.make (max 4 (2 * k)) 0 in
    Array.blit a.nbrs.(u) 0 row 0 k;
    a.nbrs.(u) <- row
  end;
  a.nbrs.(u).(k) <- v;
  a.deg.(u) <- k + 1

let add_edge g u v =
  check g u;
  check g v;
  let s = g.store in
  if not (stored_mem s.succ u v) then begin
    push s.succ u v;
    push s.pred v u;
    s.edges <- s.edges + 1
  end

let mem_edge g u v = mem_node g u && mem_node g v && stored_mem g.store.succ u v

let iter_live g a u f =
  check g u;
  if g.alive.(u) then begin
    let row = a.nbrs.(u) in
    for k = 0 to a.deg.(u) - 1 do
      if g.alive.(row.(k)) then f row.(k)
    done
  end

let iter_successors g u f = iter_live g g.store.succ u f
let iter_predecessors g u f = iter_live g g.store.pred u f

(* Live neighbours of [u] in insertion order, and how many there are. *)
let live_list g a u =
  check g u;
  let acc = ref [] in
  if g.alive.(u) then
    for k = a.deg.(u) - 1 downto 0 do
      let v = a.nbrs.(u).(k) in
      if g.alive.(v) then acc := v :: !acc
    done;
  !acc

let live_count g a u =
  check g u;
  let c = ref 0 in
  if g.alive.(u) then
    for k = 0 to a.deg.(u) - 1 do
      if g.alive.(a.nbrs.(u).(k)) then incr c
    done;
  !c

let successors g u = live_list g g.store.succ u
let predecessors g u = live_list g g.store.pred u
let out_degree g u = live_count g g.store.succ u
let in_degree g u = live_count g g.store.pred u

let edge_count g =
  if g.live = size g then g.store.edges
  else begin
    let c = ref 0 in
    for u = 0 to size g - 1 do
      c := !c + out_degree g u
    done;
    !c
  end

let nodes g =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if g.alive.(i) then i :: acc else acc) in
  go (size g - 1) []

let edges g =
  List.concat_map (fun u -> List.map (fun v -> (u, v)) (successors g u)) (nodes g)

(* Predecessor rows by counting: in-degrees first, then one fill pass by
   source in increasing order, so every row is exactly sized. The stamp
   array [seen] catches a repeated edge in O(1) per edge. *)
let of_rows rows =
  let n = Array.length rows in
  let indeg = Array.make n 0 in
  let seen = Array.make n (-1) in
  let edges = ref 0 in
  for u = 0 to n - 1 do
    let row = rows.(u) in
    for k = 0 to Array.length row - 1 do
      let v = row.(k) in
      if v < 0 || v >= n then invalid_arg "Digraph.of_rows: node out of range";
      if seen.(v) = u then invalid_arg "Digraph.of_rows: repeated edge";
      seen.(v) <- u;
      indeg.(v) <- indeg.(v) + 1
    done;
    edges := !edges + Array.length row
  done;
  let pred = Array.map (fun d -> Array.make d 0) indeg in
  let fill = Array.make n 0 in
  for u = 0 to n - 1 do
    let row = rows.(u) in
    for k = 0 to Array.length row - 1 do
      let v = row.(k) in
      pred.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1
    done
  done;
  {
    store =
      {
        succ = { nbrs = rows; deg = Array.map Array.length rows };
        pred = { nbrs = pred; deg = fill };
        edges = !edges;
      };
    alive = Array.make n true;
    live = n;
  }

let view g = { store = g.store; alive = Array.copy g.alive; live = g.live }

let remove_node g u =
  check g u;
  if g.alive.(u) then begin
    g.alive.(u) <- false;
    g.live <- g.live - 1
  end

(* An edgeless graph over [g]'s node range, live where [g] is and [keep]
   holds. *)
let empty_like g keep =
  let g' = create (size g) in
  for i = 0 to size g - 1 do
    if not (g.alive.(i) && keep i) then remove_node g' i
  done;
  g'

let induced g keep =
  let g' = empty_like g keep in
  List.iter (fun (u, v) -> if g'.alive.(u) && g'.alive.(v) then add_edge g' u v) (edges g);
  g'

let transpose g =
  let t = empty_like g (fun _ -> true) in
  List.iter (fun (u, v) -> add_edge t v u) (edges g);
  t

let weakly_connected_components g =
  (* Union-find with path halving + union by rank over live nodes. *)
  let n = size g in
  let parent = Array.init n (fun i -> i) in
  let rank = Array.make n 0 in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      parent.(i) <- parent.(p);
      find parent.(i)
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then
      if rank.(ra) < rank.(rb) then parent.(ra) <- rb
      else if rank.(ra) > rank.(rb) then parent.(rb) <- ra
      else begin
        parent.(rb) <- ra;
        rank.(ra) <- rank.(ra) + 1
      end
  in
  for u = 0 to n - 1 do
    iter_successors g u (union u)
  done;
  (* Group live nodes by root. A downward scan that prepends leaves every
     member list ascending; a second downward scan emits each component at
     its smallest member, so components come out ordered by it. *)
  let members = Array.make n [] in
  for i = n - 1 downto 0 do
    if g.alive.(i) then
      let r = find i in
      members.(r) <- i :: members.(r)
  done;
  let comps = ref [] in
  for i = n - 1 downto 0 do
    if g.alive.(i) then
      match members.(find i) with
      | first :: _ as c when first = i -> comps := c :: !comps
      | _ -> ()
  done;
  !comps

let pp ppf g =
  let pp_edge ppf (u, v) = Format.fprintf ppf "%d->%d" u v in
  Format.fprintf ppf "@[<h>nodes=%d edges=[%a]@]" (node_count g)
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") pp_edge)
    (edges g)
