open Repro_txn
open Repro_history
module Engine = Repro_db.Engine
module Builder = Repro_precedence.Builder
module Summary = Repro_precedence.Summary
module Obs = Repro_obs.Obs

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
  mutable rev_history : Protocol.base_txn list;
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
    rev_history = [];
    builder = (if incremental then Some (Builder.create ()) else None);
  }

let next t =
  {
    t with
    origin = Engine.state t.base;
    index = t.index + 1;
    rev_history = [];
    builder = Option.map (fun _ -> Builder.create ()) t.builder;
  }

let history t = List.rev t.rev_history

let append t txns =
  t.rev_history <- List.rev_append txns t.rev_history;
  Option.iter
    (fun b ->
      List.iter
        (fun (bt : Protocol.base_txn) ->
          Builder.add b (Summary.of_record ~kind:Summary.Base bt.Protocol.record))
        txns)
    t.builder

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

(* The merge runs against a fork of the window's builder, which the
   window owns: extended in place by [Protocol.merge] (or, after a
   runner's merge, by the window with the same session), then relabelled
   into the builder of the new history. An aborted merge drops the fork,
   so the window's builder never sees the session.

   A session abandoned mid-merge is a distinct failure mode from the
   Strategy-1 snapshot anomaly: it is counted in [aborted_merges], never
   as an anomaly, so E2's headline number stays comparable whether or not
   faults are on. *)
let merge t config ~prefix ~base_history ~origin tentative =
  if prefix <> [] && Option.is_some t.builder then
    invalid_arg "Window.merge: a window with a builder merges against its whole history";
  let fork = Option.map Builder.clone t.builder in
  let completed =
    match t.runner with
    | None ->
        Some
          (Protocol.merge ?base_builder:fork ~config ~params:t.params ~base:t.base ~base_history
             ~origin ~tentative ())
    | Some run -> (
        match run ~config ~params:t.params ~base:t.base ~base_history ~origin ~tentative with
        | Merge_completed report ->
            Option.iter
              (fun f ->
                Builder.add_all f
                  (Summary.of_execution ~kind:Summary.Tentative (History.execute origin tentative)))
              fork;
            Some report
        | Merge_aborted _reason ->
            t.tally.aborted_merges <- t.tally.aborted_merges + 1;
            None)
  in
  match completed with
  | None -> reprocess t ~origin tentative
  | Some report ->
      let new_history = report.Protocol.new_history in
      Option.iter
        (fun f ->
          (* The merged core (every name outside B) comes first, then the
             re-executions of backed-out transactions. *)
          let backed_out (bt : Protocol.base_txn) =
            Names.Set.mem bt.Protocol.program.Program.name report.Protocol.backed_out
          in
          let appended, core = List.partition backed_out new_history in
          Builder.commit f
            ~core:(List.map (fun (bt : Protocol.base_txn) -> bt.Protocol.program.Program.name) core)
            ~appended:
              (List.map
                 (fun (bt : Protocol.base_txn) -> Summary.of_record ~kind:Summary.Base bt.Protocol.record)
                 appended);
          t.builder <- Some f)
        fork;
      t.rev_history <- List.rev_append new_history (List.rev prefix);
      t.tally.merges <- t.tally.merges + 1;
      count t.tally report.Protocol.txns report.Protocol.cost

let session t ~started ~origin tentative =
  match t.protocol with
  | Reprocessing -> reprocess t ~origin tentative
  | Merging _ when started < t.index ->
      (* Connected too late: the history began in an expired window. *)
      t.tally.late_sessions <- t.tally.late_sessions + 1;
      t.tally.late_txns <- t.tally.late_txns + History.length tentative;
      reprocess t ~origin tentative
  | Merging mc -> merge t mc ~prefix:[] ~base_history:(history t) ~origin:t.origin tentative

let replay s0 history =
  List.fold_left (fun s (bt : Protocol.base_txn) -> Interp.apply s bt.Protocol.program) s0 history

let check ?on t =
  Obs.Span.with_ ~name:"check.window" @@ fun () ->
  let replayed = replay t.origin (history t) in
  match on with
  | None -> State.equal replayed (Engine.state t.base)
  | Some items -> State.equal_on items replayed (Engine.state t.base)
