(** Directed graphs over dense integer node identifiers [0 .. n-1].

    The precedence-graph machinery only needs adjacency queries, node
    removal, SCC decomposition, topological sort and bounded cycle
    enumeration, so the representation is plain: each node keeps its
    successors and predecessors in int arrays, in insertion order, and
    each graph value carries a live mask over the node range.

    Node removal never copies edges: {!view} makes a value that shares the
    edge store and owns a fresh copy of the mask, and {!remove_node} hides
    a node in that one value. Every query below sees only live nodes, so a
    view with some nodes removed answers like the {!induced} copy over the
    remaining nodes. Storage is O(n + edges). *)

type t

(** [create n] is an edgeless graph over nodes [0 .. n-1], all live. *)
val create : int -> t

(** [size g] is the [n] the graph was created with: node identifiers range
    over [0 .. size g - 1], live or not. *)
val size : t -> int

(** Number of live nodes — [size g] minus the nodes dropped by {!induced}
    or {!remove_node}. O(1). *)
val node_count : t -> int

(** Number of distinct edges between live nodes. O(1) while every node is
    live, O(n + edges) otherwise. *)
val edge_count : t -> int

(** [add_edge g u v] adds the edge [u -> v]; duplicate additions are
    idempotent. Self-edges are permitted (they are cycles). The edge is
    stored once for [g] and all its views. O(out-degree of [u]). *)
val add_edge : t -> int -> int -> unit

(** [mem_edge g u v] — does the edge [u -> v] exist with both ends live?
    O(out-degree of [u]). *)
val mem_edge : t -> int -> int -> bool

(** [mem_node g u] — is [u] in range and live? *)
val mem_node : t -> int -> bool

(** Live successors of [u], in insertion order; [[]] when [u] is not
    live. *)
val successors : t -> int -> int list

(** Live predecessors of [u], in insertion order; [[]] when [u] is not
    live. *)
val predecessors : t -> int -> int list

(** [iter_successors g u f] applies [f] to {!successors}[ g u] in order,
    without building the list. *)
val iter_successors : t -> int -> (int -> unit) -> unit

(** [iter_predecessors g u f] applies [f] to {!predecessors}[ g u] in
    order, without building the list. *)
val iter_predecessors : t -> int -> (int -> unit) -> unit

(** Number of live successors of [u] (0 when [u] is not live). *)
val out_degree : t -> int -> int

(** Number of live predecessors of [u] (0 when [u] is not live). *)
val in_degree : t -> int -> int

(** All edges between live nodes as [(u, v)] pairs, grouped by source
    node in increasing order, each group in insertion order. *)
val edges : t -> (int * int) list

(** All live nodes in increasing order. *)
val nodes : t -> int list

(** [of_rows rows] is the graph over nodes [0 .. Array.length rows - 1],
    all live, whose successors of [u] are [rows.(u)] in that order: the
    graph {!create} followed by {!add_edge}[ g u v] for each [u] in
    increasing order and each [v] of [rows.(u)] in order, so predecessor
    lists come out in increasing source order. One O(n + edges) pass that
    counts in-degrees first, so every predecessor row is exactly sized and
    no row is scanned for duplicates. The graph takes ownership of [rows].
    @raise Invalid_argument on an out-of-range target or a repeated
    edge. *)
val of_rows : int array array -> t

(** [view g] is [g] with its own copy of the live mask and the same edge
    store: O(n), no edge is copied. {!remove_node} on either value leaves
    the other alone; an edge added to either appears in both. *)
val view : t -> t

(** [remove_node g u] makes [u] and its edges invisible in [g] (not in
    other views of the same store). Idempotent. *)
val remove_node : t -> int -> unit

(** [induced g keep] is an independent copy of the subgraph over the live
    nodes for which [keep] holds (node identifiers are preserved; dropped
    nodes are not live). Equal, query for query, to a {!view} with the
    other nodes removed, except that the copy re-adds edges grouped by
    source, so its predecessor lists come out in source order. *)
val induced : t -> (int -> bool) -> t

(** [transpose g] is an independent copy of [g] with every edge
    reversed. *)
val transpose : t -> t

(** Weakly connected components of the live nodes: edge direction is
    ignored, so [u] and [v] share a component iff an undirected path
    joins them. Each component lists its members in increasing order;
    components are ordered by their smallest member, so the output is a
    deterministic partition of {!nodes}. Isolated live nodes appear as
    singleton components. Union-find, O((V + E) α(V)). *)
val weakly_connected_components : t -> int list list

(** {2 Stored adjacency}

    For {!Scc}'s iterative walk, which resumes a successor scan
    part-way. Node [u]'s stored successors are
    [stored_successor g u k] for [k] in [0 .. stored_out_degree g u - 1],
    in insertion order; they include nodes that are not live in [g], so
    callers filter with {!mem_node}. No range check. *)

val stored_out_degree : t -> int -> int
val stored_successor : t -> int -> int -> int

(** Debug printer: live node count and the edge list. *)
val pp : Format.formatter -> t -> unit
