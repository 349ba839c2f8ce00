open Repro_txn
open Repro_history
module Engine = Repro_db.Engine
module Builder = Repro_precedence.Builder
module Summary = Repro_precedence.Summary

type protocol = Merging of Protocol.merge_config | Reprocessing

type merge_attempt =
  | Merge_completed of Protocol.merge_report
  | Merge_aborted of string

type merge_runner =
  config:Protocol.merge_config ->
  params:Cost.params ->
  base:Engine.t ->
  base_history:Protocol.base_txn list ->
  origin:State.t ->
  tentative:History.t ->
  merge_attempt

type tally = {
  mutable merges : int;
  mutable saved : int;
  mutable reexecuted : int;
  mutable rejected : int;
  mutable late_sessions : int;
  mutable late_txns : int;
  mutable aborted_merges : int;
  cost : Cost.tally;
}

let tally () =
  {
    merges = 0;
    saved = 0;
    reexecuted = 0;
    rejected = 0;
    late_sessions = 0;
    late_txns = 0;
    aborted_merges = 0;
    cost = Cost.zero ();
  }

let add into t =
  into.merges <- into.merges + t.merges;
  into.saved <- into.saved + t.saved;
  into.reexecuted <- into.reexecuted + t.reexecuted;
  into.rejected <- into.rejected + t.rejected;
  into.late_sessions <- into.late_sessions + t.late_sessions;
  into.late_txns <- into.late_txns + t.late_txns;
  into.aborted_merges <- into.aborted_merges + t.aborted_merges;
  Cost.add into.cost t.cost

let count tally txns cost =
  List.iter
    (fun (r : Protocol.txn_report) ->
      match r.Protocol.outcome with
      | Protocol.Merged -> tally.saved <- tally.saved + 1
      | Protocol.Reexecuted -> tally.reexecuted <- tally.reexecuted + 1
      | Protocol.Rejected -> tally.rejected <- tally.rejected + 1)
    txns;
  Cost.add tally.cost cost

type t = {
  protocol : protocol;
  params : Cost.params;
  runner : merge_runner option;
  base : Engine.t;
  tally : tally;
  origin : State.t;
  index : int;
  mutable history : Protocol.base_txn list;
  mutable builder : Builder.t option;
}

let create ?runner ~incremental ~protocol ~params ~base ~origin ~index tally =
  {
    protocol;
    params;
    runner;
    base;
    tally;
    origin;
    index;
    history = [];
    builder = (if incremental then Some (Builder.create ()) else None);
  }

let next t =
  {
    t with
    origin = Engine.state t.base;
    index = t.index + 1;
    history = [];
    builder = Option.map (fun _ -> Builder.create ()) t.builder;
  }

let extend b txns =
  List.iter
    (fun (bt : Protocol.base_txn) -> Builder.add b (Summary.of_record ~kind:Summary.Base bt.Protocol.record))
    txns

let append t txns =
  t.history <- t.history @ txns;
  Option.iter (fun b -> extend b txns) t.builder

let base_txn t program =
  let record = Engine.execute t.base program in
  append t [ { Protocol.program; Protocol.record } ];
  record

let reprocess t ~origin history =
  let acceptance =
    match t.protocol with
    | Merging mc -> mc.Protocol.acceptance
    | Reprocessing -> Protocol.accept_always
  in
  let report =
    Protocol.reprocess ~acceptance ~params:t.params ~base:t.base ~origin ~tentative:history
  in
  append t report.Protocol.appended;
  count t.tally report.Protocol.txns report.Protocol.cost

(* A session abandoned mid-merge is a distinct failure mode from the
   Strategy-1 snapshot anomaly: it is counted in [aborted_merges], never
   as an anomaly, so E2's headline number stays comparable whether or not
   faults are on. *)
let attempt_merge t config ~base_history ~origin tentative =
  match t.runner with
  | None ->
      Some
        (Protocol.merge ?base_builder:t.builder ~config ~params:t.params ~base:t.base
           ~base_history ~origin ~tentative ())
  | Some run -> (
      match run ~config ~params:t.params ~base:t.base ~base_history ~origin ~tentative with
      | Merge_completed report -> Some report
      | Merge_aborted _reason ->
          t.tally.aborted_merges <- t.tally.aborted_merges + 1;
          None)

(* A merge reorders the history, so the builder restarts from the new
   one: an O(window) pass after every successful merge. *)
let merged t ~prefix (report : Protocol.merge_report) =
  t.history <- prefix @ report.Protocol.new_history;
  t.builder <-
    Option.map
      (fun _ ->
        let b = Builder.create () in
        extend b t.history;
        b)
      t.builder;
  t.tally.merges <- t.tally.merges + 1;
  count t.tally report.Protocol.txns report.Protocol.cost

let session t ~started ~origin history =
  match t.protocol with
  | Reprocessing -> reprocess t ~origin history
  | Merging _ when started < t.index ->
      (* Connected too late: the history began in an expired window. *)
      t.tally.late_sessions <- t.tally.late_sessions + 1;
      t.tally.late_txns <- t.tally.late_txns + History.length history;
      reprocess t ~origin history
  | Merging mc -> (
      match attempt_merge t mc ~base_history:t.history ~origin:t.origin history with
      | Some report -> merged t ~prefix:[] report
      | None -> reprocess t ~origin history)

let replay s0 history =
  List.fold_left (fun s (bt : Protocol.base_txn) -> Interp.apply s bt.Protocol.program) s0 history

let check ?on t =
  let replayed = replay t.origin t.history in
  match on with
  | None -> State.equal replayed (Engine.state t.base)
  | Some items -> State.equal_on items replayed (Engine.state t.base)
