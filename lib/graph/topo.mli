(** Topological sorting.

    The merging protocol's correctness argument needs a serial order of
    the merged transactions compatible with the (acyclic, reduced)
    precedence graph; [sort] produces one. *)

(** [sort ?rank g] is [Some order] — the live nodes in a topological order
    of [g] — or [None] if [g] is cyclic. Whenever several nodes are ready,
    the one with the smallest [rank v] goes first, then the smallest
    identifier; [rank] defaults to the identifier, so by default the
    order is the smallest-identifier-first one. *)
val sort : ?rank:(int -> int) -> Digraph.t -> int list option

(** [sort_exn g] is [sort g] or
    @raise Invalid_argument when the graph is cyclic. *)
val sort_exn : Digraph.t -> int list
