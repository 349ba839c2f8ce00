(* The reconnect benchmark.

   One run: [bench.exe --workload NAME --seed N --seconds S --trace 0|1].
   The seed fixes every input; the program under test only ever sees the
   generated inputs. Set-up (input generation and engine preparation) is
   timed apart from the serve phase. After untimed warm-up passes, the
   serve phase repeats whole passes over the inputs for about [S]
   seconds. Every pass checks its outputs.

   With [--trace 0] Obs recording stays off and the last stdout line
   carries the end-to-end metrics. With [--trace 1] the serve phase runs
   untraced for half the time, then with Obs recording on for the other
   half, and the last line carries the per-layer metrics, derived from
   the program's existing spans and counters plus the bench's own spans
   around the public calls it makes. README.md maps every metric to its
   layer. *)

open Repro_txn
open Repro_history
module Obs = Repro_obs.Obs
module Report = Repro_obs.Report
module Sync = Repro_replication.Sync
module Trace = Repro_replication.Trace
module Protocol = Repro_replication.Protocol
module Cost = Repro_replication.Cost
module Service = Repro_service.Service
module Sim = Repro_service.Sim
module Admission = Repro_service.Admission
module Dispatch = Repro_service.Dispatch
module Smap = Repro_service.Smap
module Flight = Repro_service.Flight
module Engine = Repro_db.Engine
module Backout = Repro_precedence.Backout
module Mergecase = Repro_experiments.Mergecase
module Gen = Repro_workload.Gen
module Banking = Repro_workload.Banking

(* ---------- statistics ---------- *)

let now = Unix.gettimeofday

(* CPU time of the process, user plus system, in seconds. The bench runs
   on one domain, so on an idle core this is the wall time; unlike the
   wall time it leaves out the time the host takes the virtual CPU away
   (steal). *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank position of percentile [p] among [n] samples, 1-based. *)
let rank p n = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))

(* Nearest-rank percentile of a sorted array, [p] in [0, 100]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (rank p n - 1)))

let median l = percentile (sorted l) 50.0

(* The highest percentile of the ladder with at least ten of [n >= 40]
   samples beyond it. *)
let tail_percentile n =
  List.find
    (fun p -> n - rank p n >= 10)
    [ 99.9; 99.5; 99.0; 98.0; 95.0; 90.0; 80.0; 75.0; 50.0 ]

let sub_seed seed i = (seed * 7919) + i

(* ---------- machine speed ---------- *)

(* On a host shared with other guests the same work can take twice as
   long, for tens of seconds at a time, when the others load the memory
   system, and CPU time does not leave that out. So a fixed reference
   computation, the probe, runs between units of work, and every time a
   metric reports is scaled by the ratio of [probe_ref_s] to the median
   of the last five probe times, raised to [sensitivity]: it reads as
   the time the work would take at the speed where the probe takes
   [probe_ref_s]. The probe does what the program's maps and sets do: it
   looks random keys up in a 64k-element integer set, built once, and it
   builds small maps that die young. It promotes nothing, so it does none
   of the program's major-GC work, and its time is left out of every
   measured interval ([clock]); a change to the program shows in full.
   Probes run at a fixed cadence of work, so a pass allocates the same
   on every run. *)
module Iset = Set.Make (Int)
module Imap = Map.Make (Int)

let probe_set = Iset.of_list (List.init 65536 (fun i -> i * 16))

let probe_work () =
  let st = ref 12345 and hits = ref 0 in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st
  in
  for _ = 1 to 10000 do
    if Iset.mem ((next () lsr 4) land 0xfffff) probe_set then incr hits
  done;
  for _ = 1 to 300 do
    let m = ref Imap.empty in
    for _ = 1 to 32 do
      m := Imap.add (next () land 0xffff) () !m
    done;
    for _ = 1 to 32 do
      if Imap.mem (next () land 0xffff) !m then incr hits
    done
  done;
  ignore (Sys.opaque_identity !hits)

(* The probe's median time in a slow phase of the host on the 2-vCPU
   Xeon VM the bench was written on; in a fast phase it took about half
   that. *)
let probe_ref_s = 0.006

(* The program's times vary about as the probe's to this power. Between
   the slowest and the fastest phase of the host seen while the bench was
   written, the probe's time fell from about 8.5 to 2.9 ms and the
   workloads' CPU times fell by 55-60%: exponents of 0.73 to 0.89. *)
let sensitivity = 0.8

let probe_spent = ref 0.0
let recent_probes = ref []
let all_probes = ref []

let probe () =
  let t0 = cpu () in
  probe_work ();
  let dt = cpu () -. t0 in
  probe_spent := !probe_spent +. dt;
  recent_probes := dt :: List.filteri (fun i _ -> i < 4) !recent_probes;
  all_probes := dt :: !all_probes

(* CPU time outside the probes. *)
let clock () = cpu () -. !probe_spent

(* [dt] seconds of [clock] just measured, at the reference speed. *)
let scaled dt =
  if !recent_probes = [] then probe ();
  dt *. ((probe_ref_s /. median !recent_probes) ** sensitivity)

(* ---------- heap peak ---------- *)

(* Major-heap peak over the serve phase: sampled at the end of every
   major cycle (a GC alarm) and at window or pass boundaries. *)
let heap_peak_words = ref 0

let sample_heap () =
  heap_peak_words := max !heap_peak_words (Gc.quick_stat ()).Gc.heap_words

let with_heap_watch f =
  Gc.compact ();
  heap_peak_words := 0;
  sample_heap ();
  let alarm = Gc.create_alarm sample_heap in
  Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f

let heap_peak_mb () = float_of_int (!heap_peak_words * (Sys.word_size / 8)) /. 1e6

(* ---------- output checks ---------- *)

let state_digest s =
  let b = Buffer.create 4096 in
  List.iter (fun (x, v) -> Printf.bprintf b "%s=%d;" x v) (State.to_list s);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* What one pass over a workload's inputs computed: identical on every
   pass of a run and pinned below for two seeds. *)
type fingerprint = { merges : int; saved : int; reexecuted : int; late : int; digest : string }

let fingerprint_to_string f =
  Printf.sprintf "merges=%d saved=%d reexecuted=%d late=%d state=%s" f.merges f.saved f.reexecuted
    f.late f.digest

(* Seed 1 is the default; seed 2 is held out: tune on neither alone. *)
let pinned =
  [
    ( ("window-merge", 1),
      "merges=3893 saved=2473 reexecuted=20622 late=0 state=0ecefc1ed1f22c2676b81d84b312e6bc" );
    ( ("window-merge", 2),
      "merges=4003 saved=2459 reexecuted=20511 late=0 state=8a513f66bf1fe0746e37e197ad7e9e16" );
    ( ("fleet-service", 1),
      "merges=21478 saved=20440 reexecuted=26938 late=17905 state=23da05f1daed7c399af3ab2dd811729c" );
    ( ("fleet-service", 2),
      "merges=21494 saved=20545 reexecuted=26998 late=18070 state=662d90acaa64948d7b20afed00456a0f" );
    ( ("long-session", 1),
      "merges=100 saved=4702 reexecuted=8098 late=0 state=5686113966d319c21b107b77380dc44c" );
    ( ("long-session", 2),
      "merges=100 saved=4763 reexecuted=8037 late=0 state=ca6b6ee748a55b25ebac624195fa4585" );
  ]

let replay s0 (txns : Protocol.base_txn list) =
  List.fold_left (fun s (bt : Protocol.base_txn) -> Interp.apply s bt.Protocol.program) s0 txns

(* ---------- the three workloads ---------- *)

(* Everything a pass reports back. *)
type pass = {
  busy : float;  (** serve CPU time of the pass, seconds, scaled *)
  sessions : int;
  failed : int;
  fp : fingerprint;
  tentative : int;
  cost : Cost.tally;
  windows : (float * int) list;
      (** per resync window: its scaled CPU time in ms and the sessions it
          served; a standalone reconnect is a window of one session *)
  item_conflicted_frac : float;
  flight : Flight.sample list;
}

(* A workload once its inputs are set up. *)
type workload = {
  serve : traced:bool -> pass;  (** one pass over the inputs *)
  warm : unit -> unit;
      (** untimed work before the serve phase: a pass, or the start of one
          where a pass is long *)
  standalone : unit -> (string * float) list;
      (** per-layer times measured by re-invoking a layer on its own, on
          the same inputs (traced run only) *)
}

let no_standalone () = []
let span name f = Obs.Span.with_ ~name f

(* window-merge: serial [Sync.run_trace], Strategy 2, merging, on E2's
   banking workload. Each input is one 60-unit resync window drawn from
   its own sub-seed, so one [run_trace] call is one window. Window costs
   vary widely, so a pass holds many windows to keep the seed-to-seed
   spread small; warm-up serves only the first [warm_traces]. *)
let window_traces = 240
let warm_traces = 20

let bank = Banking.make ~n_accounts:10

let bank_workload =
  let txn rng ~name = Banking.random_transaction bank rng ~name ~commuting_bias:0.7 in
  { Sync.initial = Banking.initial_state bank; make_mobile_txn = txn; make_base_txn = txn }

let window_config seed =
  {
    Sync.default_config with
    Sync.n_mobiles = 4;
    isolation = Sync.Strategy2;
    protocol = Sync.Merging Protocol.default_merge_config;
    duration = 60.0;
    window = 60.0;
    mean_connect_gap = 12.0;
    seed;
  }

let window_merge seed =
  let inputs =
    span "bench.generate" (fun () ->
        List.init window_traces (fun i ->
            let cfg = window_config (sub_seed seed i) in
            (cfg, Trace.generate (Sync.trace_params cfg) bank_workload)))
  in
  let serve_traces traces =
    let cost = Cost.zero () in
    let busy = ref 0.0 and sessions = ref 0 and failed = ref 0 and tentative = ref 0 in
    let merges = ref 0 and saved = ref 0 and reexecuted = ref 0 and late = ref 0 in
    let digests = Buffer.create 256 in
    let windows = ref [] in
    List.iter
      (fun (cfg, trace) ->
        let t0 = clock () in
        match span "bench.serve" (fun () -> Sync.run_trace cfg bank_workload trace) with
        | st ->
          let dt = scaled (clock () -. t0) in
          probe ();
          sample_heap ();
          let n = st.Sync.merges + st.Sync.late_sessions in
          busy := !busy +. dt;
          sessions := !sessions + n;
          if st.Sync.serializability_violations <> 0 || st.Sync.windows_checked = 0 then
            failed := !failed + n;
          tentative := !tentative + st.Sync.tentative_txns;
          merges := !merges + st.Sync.merges;
          saved := !saved + st.Sync.saved;
          reexecuted := !reexecuted + st.Sync.reexecuted;
          late := !late + st.Sync.late_sessions;
          Buffer.add_string digests (state_digest st.Sync.final_base);
          Cost.add cost st.Sync.cost;
          windows := (dt *. 1e3, n) :: !windows
        | exception e ->
          busy := !busy +. scaled (clock () -. t0);
          probe ();
          Printf.printf "window-merge: trace failed: %s\n" (Printexc.to_string e);
          incr sessions;
          incr failed)
      traces;
    {
      busy = !busy;
      sessions = !sessions;
      failed = !failed;
      fp =
        {
          merges = !merges;
          saved = !saved;
          reexecuted = !reexecuted;
          late = !late;
          digest = Digest.to_hex (Digest.string (Buffer.contents digests));
        };
      tentative = !tentative;
      cost;
      windows = List.rev !windows;
      item_conflicted_frac = 0.0;
      flight = [];
    }
  in
  let warm_inputs = List.filteri (fun i _ -> i < warm_traces) inputs in
  {
    serve = (fun ~traced:_ -> serve_traces inputs);
    warm = (fun () -> ignore (serve_traces warm_inputs));
    standalone = no_standalone;
  }

(* fleet-service: [Service.run] on a [Sim] fleet. One domain: on a
   2-vCPU host whose CPUs are shared with other guests, a second domain
   stalls at every window barrier and stop-the-world minor collection
   whenever either CPU is taken away, and run-to-run spread grew past
   50%; a single domain stays within a few percent. *)
let fleet_config seed =
  {
    Sim.default_config with
    Sim.mobiles = 5000;
    duration = 100.0;
    window = 5.0;
    items_per_mobile = 8;
    locality = 0.99;
    range_shards = true;
    domains = 1;
    seed;
  }

let fleet_service seed =
  let c = fleet_config seed in
  let sync = Sim.sync_config c in
  let wl, trace =
    span "bench.generate" (fun () ->
        let wl = Sim.workload c in
        (wl, Trace.generate (Sync.trace_params sync) wl))
  in
  let svc = Sim.service_config c in
  let serve ~traced:_ =
    (* [lap ()] ends the interval that began at the end of the last
       callback (or at the start) and adds it to the pass's time. *)
    let busy = ref 0.0 and last = ref (clock ()) in
    let lap () =
      let dt = scaled (clock () -. !last) in
      busy := !busy +. dt;
      dt
    in
    let laps = ref [] and samples = ref [] in
    let recorder (s : Flight.sample) =
      laps := (lap () *. 1e3, s.Flight.d_sessions) :: !laps;
      samples := s :: !samples;
      sample_heap ();
      probe ();
      last := clock ()
    in
    match span "bench.serve" (fun () -> Service.run ~recorder svc sync wl trace) with
    | r ->
      ignore (lap ());
      let d = r.Service.det in
      {
        busy = !busy;
        sessions = d.Service.sessions;
        failed = (if d.Service.violations <> 0 then d.Service.sessions else 0);
        fp =
          {
            merges = d.Service.merges;
            saved = d.Service.saved;
            reexecuted = d.Service.reexecuted;
            late = d.Service.late_sessions;
            digest = state_digest d.Service.final_base;
          };
        tentative = d.Service.tentative_txns;
        cost = r.Service.cost;
        (* A window lasts from one recorder callback to the next, so the
           first lap, which holds admission, is no window. *)
        windows = (match List.rev !laps with [] -> [] | _ :: ws -> ws);
        item_conflicted_frac =
          (if d.Service.sessions = 0 then 0.0
           else float_of_int d.Service.item_conflicted_sessions /. float_of_int d.Service.sessions);
        flight = List.rev !samples;
      }
    | exception e ->
      Printf.printf "fleet-service: serve failed: %s\n" (Printexc.to_string e);
      ignore (lap ());
      {
        busy = !busy;
        sessions = 1;
        failed = 1;
        fp = { merges = 0; saved = 0; reexecuted = 0; late = 0; digest = "" };
        tentative = 0;
        cost = Cost.zero ();
        windows = [];
        item_conflicted_frac = 0.0;
        flight = [];
      }
  in
  let standalone () =
    let smap = Smap.make ~shards:svc.Service.shards svc.Service.scheme in
    let t0 = cpu () in
    let windows, _, _ = Admission.windows ~seed:svc.Service.seed trace in
    let t1 = cpu () in
    List.iter
      (fun (w : Admission.window) -> ignore (Dispatch.components ~smap w.Admission.events))
      windows;
    [ ("service.admission_s", t1 -. t0); ("service.dispatch_s", cpu () -. t1) ]
  in
  { serve; warm = (fun () -> ignore (serve ~traced:false)); standalone }

(* long-session: standalone reconnects of long disconnected histories,
   each merged on its own fresh base engine. *)
let long_cases = 100

let long_profile = { Gen.default_profile with Gen.n_items = 200; zipf_skew = 0.5; commuting_fraction = 0.75 }

type long_case = {
  s0 : State.t;
  tentative : History.t;
  base_history : Protocol.base_txn list;
  base_state : State.t;
}

(* In a traced run the merge is replayed as its public phases, each under
   a bench span, so the unspanned steps between them show up. *)
let composed_merge ~base ~base_history ~origin ~tentative =
  let config = Protocol.default_merge_config and params = Cost.default_params in
  let cost = Cost.zero () in
  let g =
    span "bench.analyze_graph" (fun () ->
        Protocol.analyze_graph ~strategy:config.Protocol.strategy ~params ~cost ~base_history ~origin
          ~tentative ())
  in
  let r =
    span "bench.rewrite_local" (fun () ->
        Protocol.rewrite_local ~config ~params ~cost ~origin ~tentative ~bad:g.Protocol.gp_bad)
  in
  let plan =
    span "bench.plan_commit" (fun () -> Protocol.plan_commit ~graph:g ~rewrite:r ~base_history ~tentative)
  in
  if not (Item.Set.is_empty plan.Protocol.pl_forwarded_items) then
    span "bench.forward" (fun () ->
        Engine.apply_updates base r.Protocol.rp_pruned_state plan.Protocol.pl_forwarded_items);
  let results =
    span "bench.reexecute" (fun () ->
        List.map
          (Protocol.reexecute_one ~acceptance:config.Protocol.acceptance ~params ~base
             ~tentative_exec:g.Protocol.gp_tentative_exec ~cost)
          plan.Protocol.pl_backed_out_programs)
  in
  ( plan.Protocol.pl_merged_core @ List.filter_map snd results,
    r.Protocol.rp_rewrite.Repro_rewrite.Rewrite.saved,
    List.map fst results,
    cost )

let long_session seed =
  let cases =
    span "bench.generate" (fun () ->
        List.init long_cases (fun i ->
            Mergecase.generate ~seed:(sub_seed seed i) ~profile:long_profile ~tentative_len:128
              ~base_len:16 ~strategy:Backout.Two_cycle_then_greedy))
  in
  (* Preparation: the base history and state each merge starts from. *)
  let cases =
    List.map
      (fun (mc : Mergecase.t) ->
        let exec = History.execute mc.Mergecase.s0 mc.Mergecase.base in
        {
          s0 = mc.Mergecase.s0;
          tentative = mc.Mergecase.tentative;
          base_history =
            List.map2
              (fun program record -> { Protocol.program; record })
              (History.programs mc.Mergecase.base) exec.History.records;
          base_state = exec.History.final;
        })
      cases
  in
  let serve ~traced =
    let cost = Cost.zero () in
    let busy = ref 0.0 and failed = ref 0 and tentative = ref 0 in
    let saved = ref 0 and reexecuted = ref 0 in
    let digests = Buffer.create 4096 in
    let windows = ref [] in
    List.iteri
      (fun i c ->
        let base = Engine.create c.base_state in
        let t0 = clock () in
        let result =
          match
            span "bench.serve" (fun () ->
                if traced then
                  composed_merge ~base ~base_history:c.base_history ~origin:c.s0
                    ~tentative:c.tentative
                else
                  let r =
                    Protocol.merge ~config:Protocol.default_merge_config ~params:Cost.default_params
                      ~base ~base_history:c.base_history ~origin:c.s0 ~tentative:c.tentative ()
                  in
                  (r.Protocol.new_history, r.Protocol.saved, r.Protocol.txns, r.Protocol.cost))
          with
          | r -> Ok r
          | exception e -> Error e
        in
        let dt = scaled (clock () -. t0) in
        if i mod 4 = 3 then probe ();
        busy := !busy +. dt;
        windows := (dt *. 1e3, 1) :: !windows;
        tentative := !tentative + History.length c.tentative;
        let final = Engine.state base in
        Buffer.add_string digests (state_digest final);
        match result with
        | Ok (new_history, s, txns, k) ->
          saved := !saved + Names.Set.cardinal s;
          reexecuted :=
            !reexecuted
            + List.length
                (List.filter (fun (t : Protocol.txn_report) -> t.Protocol.outcome = Protocol.Reexecuted) txns);
          Cost.add cost k;
          if not (State.equal final (replay c.s0 new_history)) then incr failed
        | Error e ->
          Printf.printf "long-session: merge failed: %s\n" (Printexc.to_string e);
          incr failed)
      cases;
    sample_heap ();
    {
      busy = !busy;
      sessions = List.length cases;
      failed = !failed;
      fp =
        {
          merges = List.length cases;
          saved = !saved;
          reexecuted = !reexecuted;
          late = 0;
          digest = Digest.to_hex (Digest.string (Buffer.contents digests));
        };
      tentative = !tentative;
      cost;
      windows = List.rev !windows;
      item_conflicted_frac = 0.0;
      flight = [];
    }
  in
  { serve; warm = (fun () -> ignore (serve ~traced:false)); standalone = no_standalone }

(* ---------- runs ---------- *)

let workloads =
  [ ("window-merge", window_merge); ("fleet-service", fleet_service); ("long-session", long_session) ]

(* Set up at least five times and for at least two seconds; the median
   time is [setup_s], and the last set-up serves. *)
let timed_setup setup seed =
  let t_end = now () +. 2.0 in
  let rec go times =
    Gc.compact ();
    probe ();
    let t0 = clock () in
    let w = setup seed in
    let times = scaled (clock () -. t0) :: times in
    if List.length times >= 5 && now () >= t_end then (median times, w) else go times
  in
  go []

(* Untimed work for at least three seconds before the serve phase: the
   first pass after set-up grows the heap, and a run that starts from an
   idle machine would otherwise time its first seconds at a boosted
   clock. *)
let warm_up w =
  let t_end = now () +. 3.0 in
  while
    w.warm ();
    now () < t_end
  do
    ()
  done

(* Whole passes while the next one is expected to end within [seconds]
   of wall time; at least one. Returns the passes with their wall and
   unscaled CPU times. *)
let serve_for ?(traced = false) seconds w =
  let t_end = now () +. seconds in
  let rec go acc =
    let t0 = now () and c0 = clock () in
    let p = w.serve ~traced in
    let t1 = now () in
    let acc = (p, t1 -. t0, clock () -. c0) :: acc in
    if t1 +. (t1 -. t0) <= t_end then go acc else List.rev acc
  in
  let runs = go [] in
  (List.map (fun (p, _, _) -> p) runs, List.map (fun (_, w, _) -> w) runs, List.map (fun (_, _, c) -> c) runs)

let pass_rate p = float_of_int p.sessions /. p.busy

(* Windows that served no session add no reconnect delay. *)
let served p = List.filter (fun (_, n) -> n > 0) p.windows

(* Server time per reconnect: a window's CPU time shared out over the
   sessions it served. *)
let per_session p = List.map (fun (ms, n) -> ms /. float_of_int n) (served p)

(* The tail of the per-session samples: the percentile, the samples per
   pass, and the median over passes of each pass's value at that
   percentile. A pass's sample count fixes the percentile: the highest
   with ten samples beyond it, or p75 below 40 samples, where no tail
   percentile has ten beyond it. *)
let tail passes =
  let n = List.length (per_session (List.hd passes)) in
  let q = if n >= 40 then tail_percentile n else 75.0 in
  (q, n, median (List.map (fun p -> percentile (sorted (per_session p)) q) passes))

(* Correctness over all passes of a run: no failed session, the same
   fingerprint on every pass, and the pinned one where there is one. *)
let check name seed passes =
  let first = List.hd passes in
  let fp = fingerprint_to_string first.fp in
  Printf.printf "fingerprint %s seed %d: %s\n" name seed fp;
  let drifted = List.filter (fun p -> p.fp <> first.fp) passes in
  let pinned_ok =
    match List.assoc_opt (name, seed) pinned with
    | Some expected when expected <> fp ->
      Printf.printf "check: fingerprint differs from the pinned one: %s\n" expected;
      false
    | _ -> true
  in
  if drifted <> [] then Printf.printf "check: %d passes computed another fingerprint\n" (List.length drifted);
  let attempted = List.fold_left (fun n p -> n + p.sessions) 0 passes in
  let failed =
    List.fold_left (fun n p -> n + p.failed) 0 passes
    + List.fold_left (fun n p -> n + p.sessions) 0 drifted
    + if pinned_ok then 0 else first.sessions
  in
  (attempted, failed)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-34s %14.6f %s\n" name v unit) metrics;
  Printf.printf "failed_frac %.6f (%d of %d sessions)\n" (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
          metrics))

let end_to_end name setup seed seconds =
  let setup_s, w = timed_setup setup seed in
  warm_up w;
  all_probes := [];
  let passes, walls, cpus = with_heap_watch (fun () -> serve_for seconds w) in
  let attempted, failed = check name seed passes in
  let first = List.hd passes in
  let seconds_list l = String.concat " " (List.map (Printf.sprintf "%.3f") l) in
  Printf.printf "pass wall (s): %s\npass CPU (s): %s\npass scaled (s): %s\n" (seconds_list walls)
    (seconds_list cpus)
    (seconds_list (List.map (fun p -> p.busy) passes));
  Printf.printf "probe: median %.3f ms over %d probes (reference %.3f ms)\n"
    (median !all_probes *. 1e3) (List.length !all_probes) (probe_ref_s *. 1e3);
  let tail_p, tail_n, tail_ms = tail passes in
  Printf.printf "%s seed %d: %d passes of %d sessions in %d windows; merge_tail_ms is p%g of %d samples per pass\n"
    name seed (List.length passes) first.sessions (List.length (served first)) tail_p tail_n;
  print_result ~attempted ~failed
    [
      ("setup_s", setup_s, "s");
      ("sessions_per_s", median (List.map pass_rate passes), "1/s");
      ("merge_p50_ms", median (List.map (fun p -> median (per_session p)) passes), "ms");
      ("merge_tail_ms", tail_ms, "ms");
      ("window_p50_ms", median (List.map (fun p -> median (List.map fst (served p))) passes), "ms");
      ("saved_frac", float_of_int first.fp.saved /. float_of_int first.tentative, "ratio");
      ("heap_peak_mb", heap_peak_mb (), "MB");
    ]

let span_total (r : Report.t) name =
  match List.find_opt (fun (s : Report.span) -> s.Report.s_name = name) r.Report.spans with
  | Some s -> s.Report.total_s
  | None -> 0.0

let per_layer name setup seed seconds =
  Obs.set_enabled true;
  Obs.reset ();
  let w = setup seed in
  let generate_s = span_total (Obs.snapshot ()) "bench.generate" in
  Obs.set_enabled false;
  warm_up w;
  let untraced, _, _ = serve_for (seconds /. 2.0) w in
  Obs.set_enabled true;
  Obs.reset ();
  let traced, _, _ = serve_for ~traced:true (seconds /. 2.0) w in
  let standalone = w.standalone () in
  let r = Obs.snapshot () in
  Obs.set_enabled false;
  let attempted, failed = check name seed (untraced @ traced) in
  let n = float_of_int (List.length traced) in
  let sp name = span_total r name /. n in
  let ct name =
    match List.find_opt (fun (c : Report.counter) -> c.Report.c_name = name) r.Report.counters with
    | Some c -> float_of_int c.Report.value /. n
    | None -> 0.0
  in
  let dist_mean name =
    match List.find_opt (fun (d : Report.dist) -> d.Report.d_name = name) r.Report.dists with
    | Some d when d.Report.count > 0 -> d.Report.total /. float_of_int d.Report.count
    | _ -> 0.0
  in
  let ext name = Option.value ~default:0.0 (List.assoc_opt name standalone) in
  let first = List.hd untraced in
  let sessions = float_of_int first.sessions in
  let phases =
    List.fold_left ( +. ) 0.0
      (List.map sp
         [ "bench.analyze_graph"; "bench.rewrite_local"; "bench.plan_commit"; "bench.forward"; "bench.reexecute" ])
  in
  let forward = sp "protocol.forward" +. sp "bench.forward" in
  let reexecute = sp "protocol.reexecute" +. sp "bench.reexecute" in
  let reprocess = sp "protocol.reprocess" in
  let prune = sp "prune.compensate" +. sp "prune.undo" in
  let merge_self =
    sp "protocol.merge" +. phases
    -. (sp "precedence.build" +. sp "backout.compute" +. sp "rewrite.run" +. prune +. forward
       +. Float.max 0.0 (reexecute -. reprocess))
  in
  let bookkeeping =
    if sp "sync.run" = 0.0 then 0.0
    else Float.max 0.0 (sp "sync.run" -. sp "protocol.merge" -. reprocess)
  in
  let serial =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc (s : Flight.sample) ->
            acc +. Float.max 0.0 (s.Flight.dt_s -. Array.fold_left Float.max 0.0 s.Flight.worker_busy_s))
          acc p.flight)
      0.0 traced
    /. n
  in
  let median_busy ps = median (List.map (fun p -> p.busy) ps) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let cost = first.cost in
  print_result ~attempted ~failed
    [
      ("workload.generate_s", generate_s, "s");
      ("backout.compute_s", sp "backout.compute", "s");
      ("protocol.merge.self_s", Float.max 0.0 merge_self, "s");
      ("sync.bookkeeping_s", bookkeeping, "s");
      ("precedence.incremental_updates", ct "precedence.incremental_updates", "count");
      ("backout.computed", ct "backout.computed", "count");
      ("backout.bnb_nodes_pruned", ct "backout.bnb_nodes_pruned", "count");
      ("precedence.cyclic_graphs", ct "precedence.cyclic_graphs", "count");
      ("precedence.build_s", sp "precedence.build", "s");
      ("rewrite.run_s", sp "rewrite.run", "s");
      ("prune.run_s", prune, "s");
      ("precedence.builds", ct "precedence.builds", "count");
      ("rewrite.pair_checks", ct "rewrite.pair_checks", "count");
      ("rewrite.can_precede_calls", ct "rewrite.can_precede_calls", "count");
      ("rewrite.moves", ct "rewrite.moves", "count");
      ("rewrite.moves_per_check", ratio (ct "rewrite.moves") (ct "rewrite.pair_checks"), "ratio");
      ("prune.items_restored", ct "prune.items_restored", "count");
      ("prune.uras_run", ct "prune.uras_run", "count");
      ("service.admission_s", ext "service.admission_s", "s");
      ("service.dispatch_s", ext "service.dispatch_s", "s");
      ("service.worker_busy_s", sp "service.component", "s");
      ("service.serial_s", serial, "s");
      ("service.worker_util", dist_mean "service.worker_utilization", "ratio");
      ("service.components", ct "service.components", "count");
      ("service.parallel_windows", ct "service.parallel_windows", "count");
      ("service.item_conflicted_frac", first.item_conflicted_frac, "ratio");
      ("protocol.forward_s", forward, "s");
      ("protocol.reexecute_s", reexecute, "s");
      ("protocol.reprocess_s", reprocess, "s");
      ("db.wal_forces", ct "db.wal_forces", "count");
      ("db.wal_records", ct "db.wal_records", "count");
      ("db.txns_committed", ct "db.txns_committed", "count");
      ("db.group_commit.coalesced", ct "db.group_commit.coalesced", "count");
      ("db.forces_per_session", ratio (ct "db.wal_forces") sessions, "ratio");
      ("cost.communication", cost.Cost.communication, "units");
      ("cost.base_cpu", cost.Cost.base_cpu, "units");
      ("cost.base_io", cost.Cost.base_io, "units");
      ("cost.mobile_cpu", cost.Cost.mobile_cpu, "units");
      ( "trace.attributed_frac",
        ratio (sp "sync.run" +. sp "service.run" +. phases) (sp "bench.serve"),
        "ratio" );
      ("trace.overhead_frac", ratio (median_busy traced) (median_busy untraced) -. 1.0, "ratio");
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let usage = "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME window-merge | fleet-service | long-session");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S serve-phase length (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  | Some _ when (!trace <> 0 && !trace <> 1) || !seconds <= 0.0 ->
    prerr_endline usage;
    exit 2
  | Some setup ->
    if !trace = 1 then per_layer !workload setup !seed !seconds
    else end_to_end !workload setup !seed !seconds
