(** Incremental precedence-graph builder.

    {!Precedence.build} pays an O(n²) pairwise conflict scan on every
    merge, even though a reconnecting mobile usually extends a base
    history the server has already analyzed. This builder maintains the
    graph — and its acyclicity verdict — as history entries arrive:

    - per-item reader/writer indexes make one {!add} cost proportional to
      the transactions actually sharing an item with the newcomer, not to
      the whole history;
    - any cycle created by an addition must pass through the new node, so
      acyclicity is maintained by a single DFS from it (and once cyclic,
      the graph stays cyclic — {!add} never removes a node);
    - adjacency is kept in the graph kernel's int-array rows, so
      {!clone} and {!to_precedence} are single O(V+E) passes with no
      per-edge search;
    - after a successful merge, {!commit} turns the fork that analysed
      the session into the next base-history builder by relabelling its
      surviving nodes, instead of re-adding the whole merged history.

    The edge rules are exactly {!Precedence.build}'s, including the
    blind-write fallback's order sensitivity; the
    [test/test_precedence.ml] qcheck property [builder_equals_build]
    checks equality against a from-scratch build over random interleaved
    arrival orders, and [test/test_replication.ml] checks that {!commit}
    equals a fresh {!add_all} of the merged history. Each {!add} ticks the
    [precedence.incremental_updates] counter; {!clone}, {!to_precedence}
    and {!commit} run under the [precedence.fork],
    [precedence.materialize] and [precedence.relabel] spans.

    Typical use — a Strategy 2 window keeps one builder mirroring its
    base history, and each reconnect works on a fork of it:

    {[
      let b = Builder.create () in
      Builder.add b (Summary.of_record ~kind:Summary.Base record);
      (* ... more base transactions as they commit ... *)
      let fork = Builder.clone b in
      Builder.add_all fork session_tentative_summaries;
      let pg = Builder.to_precedence fork in
      (* ... back out, rewrite, order the survivors as [core] ... *)
      Builder.commit fork ~core ~appended:reexecuted_summaries;
      (* [fork] now mirrors the merged history and replaces [b] *)
    ]} *)

type t

(** A builder holding no transactions; its graph is trivially acyclic. *)
val create : unit -> t

(** Independent copy in O(V+E); subsequent {!add}s to either side do not
    affect the other. *)
val clone : t -> t

(** Number of transactions added so far. *)
val length : t -> int

(** Current acyclicity verdict, maintained incrementally — O(1). *)
val is_acyclic : t -> bool

(** [add t s] appends one transaction. Arrival order within each kind is
    that kind's history order; tentative and base arrivals may be freely
    interleaved.

    @raise Invalid_argument on a duplicate transaction name. *)
val add : t -> Summary.t -> unit

(** [add_all t summaries] — {!add} each in list order. *)
val add_all : t -> Summary.t list -> unit

(** Materialize the current graph as an immutable {!Precedence.t} whose
    node numbering, edge set and acyclicity verdict are identical to
    [Precedence.build ~tentative ~base] over the same summaries. One
    O(V+E) renumbering pass into exactly-sized rows
    ({!Repro_graph.Digraph.of_rows}); successors keep their arrival
    order. The builder remains usable afterwards. *)
val to_precedence : t -> Precedence.t

(** [commit fork ~core ~appended] turns [fork] — a builder holding a
    base history plus one session's tentative transactions — into the
    builder of the merged history: the transactions named by [core], in
    that order and all of kind [Base], followed by [appended] (added as by
    {!add_all}). Fork nodes not named in [core] are dropped.

    [core] must be a topological order of the fork's graph without the
    dropped nodes (the merged core of {!Repro_replication.Protocol}).
    Then every conflicting pair of survivors has exactly one fork edge,
    pointing forward in [core], so the surviving edges are the edges a
    fresh build of [core] would produce. The result equals, field for
    field ({!equal}), [add_all (create ())] over the same summaries with
    the tentative ones re-kinded [Base]. O(V+E) plus the appended adds;
    only the appended adds tick [precedence.incremental_updates].

    @raise Invalid_argument when [core] names an unknown transaction,
    names one twice, or is not a topological order of the survivors, or
    when an appended name is already present; [fork] must then be
    discarded. *)
val commit : t -> core:Repro_history.Names.t list -> appended:Summary.t list -> unit

(** [equal a b] — the two builders hold the same summaries in the same
    order, the same successor rows in the same order, the same name index,
    the same per-item reader and writer lists in the same order, the same
    edge and tentative counts and the same verdict. Scratch visit marks
    are ignored. For tests. *)
val equal : t -> t -> bool
