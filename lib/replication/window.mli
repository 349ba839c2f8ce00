(** One resynchronization window of the paper's Strategy 2 (Section 2.2).

    A window has an origin state and index; the base's logical history
    since that origin; and an incremental precedence {!Builder} that
    mirrors the history, so a reconnect's graph costs the session delta
    rather than a pairwise scan of the whole window. Base commits and
    reprocessed appends extend the builder in place. Each merge runs on a
    fork of the builder that the window owns; a successful merge reorders
    the history, and the fork that analysed the session is relabelled
    into the new history's builder ({!Repro_precedence.Builder.commit})
    rather than rebuilt. An aborted merge drops the fork.

    This is the one copy of Strategy 2's state machine. The serial
    simulator ({!Sync}) drives one window after another against its base
    engine. The merge service drives one window per connected component
    against a scratch engine. Strategy 1 uses a window that never closes
    and has no builder: its per-mobile snapshots share no common graph.

    The window records only the [check.window] span of its ground-truth
    replay ({!check}) to {!Repro_obs.Obs}; its callers own every other
    counter and span. *)

open Repro_txn
open Repro_history

type protocol = Merging of Protocol.merge_config | Reprocessing

(** Outcome of one merge attempt under a pluggable runner: completed (the
    report), or abandoned mid-session — a failure mode distinct from the
    Strategy-1 snapshot anomaly. An aborted attempt leaves the base state
    untouched; the window falls back to reprocessing and counts it in
    {!tally.aborted_merges}. *)
type merge_attempt =
  | Merge_completed of Protocol.merge_report
  | Merge_aborted of string  (** abort reason *)

(** How a reconnection's merge is actually carried out. Without a runner
    the window calls {!Protocol.merge} directly (a perfect atomic
    exchange); the fault-injection layer
    ({!Repro_fault.Session.sync_runner}) substitutes a resumable
    message-level session over an unreliable transport. *)
type merge_runner =
  config:Protocol.merge_config ->
  params:Cost.params ->
  base:Repro_db.Engine.t ->
  base_history:Protocol.base_txn list ->
  origin:State.t ->
  tentative:History.t ->
  merge_attempt

(** Per-session verdicts and the Section 7.1 cost, summed over sessions. *)
type tally = {
  mutable merges : int;  (** reconnections handled by merging *)
  mutable saved : int;  (** tentative transactions saved by merging *)
  mutable reexecuted : int;  (** tentative transactions re-executed at the base *)
  mutable rejected : int;  (** re-executions failing acceptance *)
  mutable late_sessions : int;  (** histories begun in an expired window *)
  mutable late_txns : int;  (** tentative transactions in those sessions *)
  mutable aborted_merges : int;  (** merges abandoned by the runner *)
  cost : Cost.tally;
}

val tally : unit -> tally

(** [add into t] adds every counter and cost of [t] into [into]. *)
val add : tally -> tally -> unit

type t = private {
  protocol : protocol;
  params : Cost.params;
  runner : merge_runner option;
  base : Repro_db.Engine.t;
  tally : tally;  (** shared by every window of one run *)
  origin : State.t;  (** base state when the window opened *)
  index : int;
  mutable rev_history : Protocol.base_txn list;
      (** logical base history since [origin], newest first (see {!history}) *)
  mutable builder : Repro_precedence.Builder.t option;  (** mirrors the history *)
}

(** [create ?runner ~incremental ~protocol ~params ~base ~origin ~index
    tally] opens a window at [origin], whose state [base] currently holds.
    [incremental] keeps the precedence builder. *)
val create :
  ?runner:merge_runner ->
  incremental:bool ->
  protocol:protocol ->
  params:Cost.params ->
  base:Repro_db.Engine.t ->
  origin:State.t ->
  index:int ->
  tally ->
  t

(** The window after [t]: it opens at the base's current state, with the
    next index and the same configuration and tally. *)
val next : t -> t

(** Commit one base transaction and append it to the history. *)
val base_txn : t -> Program.t -> Interp.record

(** [session t ~started ~origin history] handles one reconnection whose
    tentative [history] ran from [origin], the origin of window
    [started]. Under [Merging], a session begun before this window is
    late and reprocessed; otherwise it is merged against the window's
    history and reprocessed if the runner aborts the merge. Under
    [Reprocessing] every session is reprocessed. *)
val session : t -> started:int -> origin:State.t -> History.t -> unit

(** Reprocess [history] (run from [origin]) at the base and append what
    it commits. *)
val reprocess : t -> origin:State.t -> History.t -> unit

(** [merge t config ~prefix ~base_history ~origin tentative] merges the
    session [tentative] (run from [origin]) against [base_history], the
    window's history after [prefix], through the runner if any. A
    completed merge makes the history [prefix] followed by the merge's
    new history and counts it. An aborted one is counted in
    {!tally.aborted_merges}, leaves the base and the builder untouched,
    and the session is reprocessed instead.
    @raise Invalid_argument for a non-empty [prefix] on a window with a
    builder, which mirrors the whole history. *)
val merge :
  t ->
  Protocol.merge_config ->
  prefix:Protocol.base_txn list ->
  base_history:Protocol.base_txn list ->
  origin:State.t ->
  History.t ->
  unit

(** The logical base history since the origin, oldest first. Appends
    are O(1); this materializes the list, in O(length). *)
val history : t -> Protocol.base_txn list

(** [replay s0 history] applies each transaction's program in order. *)
val replay : State.t -> Protocol.base_txn list -> State.t

(** The ground-truth serializability check: does the history replay from
    the origin to the base's current state? [on] restricts the
    comparison to those items. *)
val check : ?on:Item.Set.t -> t -> bool
