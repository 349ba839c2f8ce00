(** Strongly connected components (Tarjan's algorithm, iterative over int
    arrays, so deep graphs cannot overflow the stack) and the cycle queries
    the back-out strategies need. All of them see only live nodes, so they
    run unchanged on a {!Digraph.view} with nodes removed. *)

(** The strongly connected components of the graph, each as a list of
    nodes in DFS discovery order. Tarjan completes components in reverse
    topological order of the condensation and this list reverses that, so
    every edge between two components points from an earlier one to a
    later one. *)
val components : Digraph.t -> int list list

(** Live nodes lying on a cycle, in increasing order. A node lies on a
    cycle iff its component has ≥ 2 nodes or it has a self-edge. *)
val nodes_on_cycles : Digraph.t -> int list

(** [is_acyclic g] — no node lies on a cycle. Stops at the first cyclic
    component. *)
val is_acyclic : Digraph.t -> bool

(** [two_cycles g] — all unordered pairs [(u, v)], [u < v], with both
    [u -> v] and [v -> u], ordered by [u], then by the insertion order of
    [u -> v]. O(n + edges): each node's predecessors are stamped once, so
    no edge list is built and no adjacency row is scanned per edge. *)
val two_cycles : Digraph.t -> (int * int) list

(** [cycles ?limit g] enumerates elementary cycles (as node lists) up to
    [limit] (default 10_000), via Johnson-style DFS within components.
    Intended for tests and small instances. *)
val cycles : ?limit:int -> Digraph.t -> int list list
