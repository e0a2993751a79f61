module Config = Resim_core.Config
module Stats = Resim_core.Stats
module Engine = Resim_core.Engine
module Checkpoint = Resim_core.Checkpoint
module Fault = Resim_trace.Fault
module Rcheck = Resim_check.Check

type scale = Default | Evaluation | Exact of int

type job = {
  label : string;
  workload : Resim_workloads.Workload.t;
  config : Config.t;
  scale : scale;
  records : Resim_trace.Record.t array option;
      (* pre-built trace overriding kernel generation *)
  stream : (unit -> unit -> Resim_trace.Record.t option) option;
      (* opened on the worker domain; overrides [records] *)
  timeout : float option;  (* per-job wall-clock budget, seconds *)
  sample : Resim_sample.Sample.spec option;
      (* sampled simulation instead of a full detailed run *)
}

let job ?label ?(scale = Evaluation) ?timeout ?sample ~config workload =
  let label =
    match label with
    | Some label -> label
    | None -> Resim_workloads.Workload.name_of workload
  in
  { label; workload; config; scale; records = None; stream = None; timeout;
    sample }

let trace_job ?(label = "trace") ?timeout ?sample ~config records =
  { label;
    (* Placeholder for table rendering only: a pre-built trace never
       touches the kernel. *)
    workload = List.hd Resim_workloads.Workload.all;
    config;
    scale = Exact (Array.length records);
    records = Some records;
    stream = None;
    timeout;
    sample }

let stream_job ?(label = "stream") ?timeout ?sample ~config open_stream =
  { label;
    workload = List.hd Resim_workloads.Workload.all;
    config;
    scale = Exact 0;
    records = None;
    stream = Some open_stream;
    timeout;
    sample }

let generator_config (config : Config.t) =
  { Resim_tracegen.Generator.predictor = config.predictor;
    wrong_path_limit = config.rob_entries + config.ifq_entries;
    max_instructions = 20_000_000 }

type telemetry = { wall_seconds : float; host_mips : float }

type result = {
  job : job;
  generated : Resim_tracegen.Generator.result;
  outcome : Resim_core.Resim.outcome;
  telemetry : telemetry;
  sample_report : Resim_sample.Sample.report option;
}

let program_of job =
  let module K = (val job.workload : Resim_workloads.Kernel_sig.S) in
  match job.scale with
  | Default -> K.program ()
  | Evaluation -> K.program ~scale:K.evaluation_scale ()
  | Exact scale -> K.program ~scale ()

exception Invalid_config of string

(* Fail before any domain spawns or trace generation starts: a sweep
   burning minutes of host time on a configuration the validator
   rejects is the bug resim-check exists to catch. *)
let validate_job job =
  match Rcheck.Config.error_summary job.config with
  | None -> ()
  | Some summary ->
      raise (Invalid_config (Printf.sprintf "%s: %s" job.label summary))

(* A pre-built trace arrives without generator metadata; derive the
   figures the result record and tables need from the records. *)
let generated_of_records records =
  let wrong =
    Array.fold_left
      (fun acc (r : Resim_trace.Record.t) ->
        if r.wrong_path then acc + 1 else acc)
      0 records
  in
  { Resim_tracegen.Generator.records;
    correct_path = Array.length records - wrong;
    wrong_path = wrong;
    mispredicted_branches = 0;
    executed_to_completion = true }

(* A streamed job's trace never materialises; after the run, the
   incremental summary stands in for generator metadata. *)
let generated_of_summary (summary : Resim_trace.Summary.t) =
  { Resim_tracegen.Generator.records = [||];
    correct_path = summary.correct_path;
    wrong_path = summary.wrong_path;
    mispredicted_branches = 0;
    executed_to_completion = true }

(* The job's records as a [Source], with the generator metadata when it
   is known before the run. A stream is opened here, on the worker
   domain that runs the job — its thunk captures only domain-safe
   values, typically a path. *)
let acquire job =
  match (job.stream, job.records) with
  | Some open_stream, _ ->
      (None, Resim_core.Source.of_pull (open_stream ()))
  | None, Some records ->
      (Some (generated_of_records records), Resim_core.Source.of_array records)
  | None, None ->
      let generated =
        Resim_tracegen.Generator.run ~config:(generator_config job.config)
          (program_of job)
      in
      (Some generated, Resim_core.Source.of_array generated.records)

(* One job through [Resim.run], sampled when the job asks. The
   wall-clock window, and the deadline, open after trace acquisition:
   host_mips is an engine-throughput figure, and generation (often the
   longer half) must not dilute it. A regression test pins this. *)
let simulate ?watchdog ?max_cycles ?timeout ?instrument job
    (generated, source) =
  let started = Unix.gettimeofday () in
  let deadline =
    Option.map
      (fun seconds ->
        let limit = started +. seconds in
        fun () -> Unix.gettimeofday () > limit)
      timeout
  in
  let config = job.config in
  let ran =
    match job.sample with
    | None ->
        Stdlib.Result.map
          (fun robust -> (robust, None))
          (Resim_core.Resim.run ~config ?watchdog ?max_cycles ?deadline
             ?instrument source)
    | Some spec ->
        Stdlib.Result.map
          (fun (robust, report) -> (robust, Some report))
          (Resim_sample.Sample.run ~config ?watchdog ?max_cycles ?deadline
             ?instrument ~spec source)
  in
  Stdlib.Result.map
    (fun ((robust : Resim_core.Resim.robust), sample_report) ->
      let outcome = robust.outcome in
      let generated =
        match generated with
        | Some generated -> generated
        | None -> generated_of_summary outcome.trace_summary
      in
      let wall_seconds = Unix.gettimeofday () -. started in
      let committed =
        Int64.to_float (Stats.get Stats.committed outcome.stats)
      in
      let host_mips =
        if wall_seconds > 0.0 then committed /. wall_seconds /. 1e6 else 0.0
      in
      ( { job; generated; outcome; telemetry = { wall_seconds; host_mips };
          sample_report },
        robust ))
    ran

let run_job ?instrument job =
  validate_job job;
  match simulate ?instrument job (acquire job) with
  | Stdlib.Ok (result, _) -> result
  | Stdlib.Error failure -> Resim_core.Resim.raise_failure failure

(* ------------------------------------------------------------------ *)
(* Per-job fault domains: one job's corrupt trace, deadlock, timeout or
   crash becomes a structured outcome in the report instead of taking
   the whole sweep down. *)

type failure =
  | Fault of Fault.t
  | Deadlock of Engine.deadlock
  | Invalid of string
  | Crashed of string

let failure_code = function
  | Fault fault -> fault.Fault.code
  | Deadlock _ -> "deadlock"
  | Invalid _ -> "invalid-config"
  | Crashed _ -> "crash"

let failure_to_string = function
  | Fault fault -> Fault.to_string fault
  | Deadlock d -> Format.asprintf "deadlock: %a" Engine.pp_deadlock d
  | Invalid summary -> "invalid configuration: " ^ summary
  | Crashed message -> "crashed: " ^ message

type outcome =
  | Ok of result
  | Failed of failure
  | Timed_out of float  (* wall seconds burned before the deadline hit *)
  | Truncated of result * Checkpoint.t

type job_report = { job : job; outcome : outcome; attempts : int }
type report = { job_reports : job_report list }

type policy = {
  timeout : float option;       (* default per-job budget, seconds *)
  max_cycles : int64 option;
  watchdog : int option;
  retries : int;                (* extra attempts for Failed outcomes *)
  backoff : float;              (* first retry delay, seconds *)
  max_backoff : float;
}

let default_policy =
  { timeout = None;
    max_cycles = None;
    watchdog = None;
    retries = 0;
    backoff = 0.25;
    max_backoff = 5.0 }

(* The §III protocol bound on a tagged block under this configuration —
   the generator's wrong-path limit, which RSM-T007 enforces. *)
let protocol_max_run (config : Config.t) =
  config.rob_entries + config.ifq_entries

let fault_of_diagnostic (d : Rcheck.Diagnostic.t) =
  (* Lint subjects are "record %d" (or "header"); recover the offset. *)
  let offset =
    match String.index_opt d.subject ' ' with
    | Some i -> (
        match
          int_of_string_opt
            (String.sub d.subject (i + 1) (String.length d.subject - i - 1))
        with
        | Some n -> n
        | None -> 0)
    | None -> 0
  in
  Fault.make ~code:d.code ~offset ~context:d.message

let attempt_unsafe ~policy ?instrument job : outcome =
  let input = acquire job in
  (* Pre-built arrays pass the resim-check lint gate first: the engine
     tolerates many protocol violations silently (orphan tags are
     discarded, runaway blocks squashed), so structural faults must
     surface here as structured failures with their RSM-T code. A
     stream cannot be linted and then simulated; its codec's typed
     errors surface mid-run as [Failed (Fault _)] instead, and a
     truncated stream is exactly such a fault, never a silently short
     [Ok]. *)
  let gate =
    match (job.stream, job.records) with
    | None, Some records ->
        let lint =
          Rcheck.Trace.lint_records
            ~max_wrong_path_run:(protocol_max_run job.config) records
        in
        List.find_opt Rcheck.Diagnostic.is_error lint.Rcheck.Trace.diagnostics
    | _ -> None
  in
  match gate with
  | Some diagnostic -> Failed (Fault (fault_of_diagnostic diagnostic))
  | None -> (
      let timeout =
        match job.timeout with Some t -> Some t | None -> policy.timeout
      in
      match
        simulate ?watchdog:policy.watchdog ?max_cycles:policy.max_cycles
          ?timeout ?instrument job input
      with
      | Stdlib.Error (Resim_core.Resim.Fault fault) -> Failed (Fault fault)
      | Stdlib.Error (Resim_core.Resim.Deadlock d) -> Failed (Deadlock d)
      | Stdlib.Error (Resim_core.Resim.Resume reason) -> Failed (Invalid reason)
      | Stdlib.Ok (result, robust) -> (
          match robust.stop with
          | Engine.Drained -> Ok result
          | Engine.Time_budget -> Timed_out result.telemetry.wall_seconds
          | Engine.Cycle_budget | Engine.Commit_target -> (
              match robust.resume with
              | Some checkpoint -> Truncated (result, checkpoint)
              | None -> Ok result)))

let attempt ~policy ?instrument job : outcome =
  match attempt_unsafe ~policy ?instrument job with
  | outcome -> outcome
  | exception Fault.Trace_fault fault -> Failed (Fault fault)
  | exception Engine.Deadlock d -> Failed (Deadlock d)
  | exception exn -> Failed (Crashed (Printexc.to_string exn))

(* Deterministic failures — corrupt traces, deadlocks, invalid
   configurations — fail identically on every attempt, so retrying them
   burns retries x backoff of wall time for nothing. Only host-side
   transients are worth another attempt: an unexpected crash, or a
   deadline that a loaded machine may have caused. *)
let retryable = function
  | Failed (Crashed _) | Timed_out _ -> true
  | Ok _ | Truncated _ | Failed (Fault _ | Deadlock _ | Invalid _) -> false

let first_attempt ~policy ?instrument job : job_report =
  match Rcheck.Config.error_summary job.config with
  | Some summary -> { job; outcome = Failed (Invalid summary); attempts = 1 }
  | None -> { job; outcome = attempt ~policy ?instrument job; attempts = 1 }

let run_job_robust ?(policy = default_policy) ?instrument job : job_report =
  let rec go (report : job_report) backoff =
    if report.attempts > policy.retries || not (retryable report.outcome)
    then report
    else begin
      (* Direct single-job callers back off on the calling domain; the
         pooled [run] path retries in coordinator-driven rounds instead,
         so a worker slot never sleeps. Attempt telemetry is measured
         inside [attempt], so backoff never inflates wall_seconds. *)
      Unix.sleepf backoff;
      go
        { report with
          outcome = attempt ~policy ?instrument job;
          attempts = report.attempts + 1 }
        (Float.min policy.max_backoff (backoff *. 2.0))
    end
  in
  go (first_attempt ~policy ?instrument job) policy.backoff

let run ?(strict = false) ?policy ?prof ?jobs ?instrument list =
  let jobs =
    match jobs with Some jobs -> jobs | None -> Pool.recommended_jobs ()
  in
  if strict then begin
    List.iter validate_job list;
    let results =
      Pool.map ?prof ~jobs (run_job ?instrument) (Array.of_list list)
    in
    { job_reports =
        Array.to_list
          (Array.map
             (fun (result : result) ->
               { job = result.job; outcome = Ok result; attempts = 1 })
             results) }
  end
  else begin
    let policy = match policy with Some p -> p | None -> default_policy in
    let job_array = Array.of_list list in
    (* Round 0: one attempt per job across the pool. *)
    let reports =
      Pool.map ?prof ~jobs (first_attempt ~policy ?instrument) job_array
    in
    (* Retry rounds: the coordinator sleeps out the backoff once per
       round while every worker slot stays free, then resubmits only the
       still-retryable jobs. Merging by index preserves job order. *)
    let backoff = ref policy.backoff in
    let round = ref 0 in
    let pending () =
      let indices = ref [] in
      Array.iteri
        (fun i (report : job_report) ->
          if retryable report.outcome then indices := i :: !indices)
        reports;
      Array.of_list (List.rev !indices)
    in
    let continue = ref (policy.retries > 0) in
    while !continue && !round < policy.retries do
      let indices = pending () in
      if Array.length indices = 0 then continue := false
      else begin
        incr round;
        Unix.sleepf !backoff;
        backoff := Float.min policy.max_backoff (!backoff *. 2.0);
        let retried =
          Pool.map ?prof ~jobs
            (fun i -> attempt ~policy ?instrument job_array.(i))
            indices
        in
        Array.iteri
          (fun slot i ->
            let previous = reports.(i) in
            reports.(i) <-
              { previous with
                outcome = retried.(slot);
                attempts = previous.attempts + 1 })
          indices
      end
    done;
    { job_reports = Array.to_list reports }
  end

let completed report =
  List.filter_map
    (fun jr ->
      match jr.outcome with
      | Ok result | Truncated (result, _) -> Some result
      | Failed _ | Timed_out _ -> None)
    report.job_reports

let failures report =
  List.filter
    (fun jr ->
      match jr.outcome with
      | Failed _ | Timed_out _ -> true
      | Ok _ | Truncated _ -> false)
    report.job_reports

type counts = {
  ok : int;
  failed : int;
  timed_out : int;
  truncated : int;
  retried : int;
}

let counts report =
  List.fold_left
    (fun acc jr ->
      let acc =
        if jr.attempts > 1 then { acc with retried = acc.retried + 1 }
        else acc
      in
      match jr.outcome with
      | Ok _ -> { acc with ok = acc.ok + 1 }
      | Failed _ -> { acc with failed = acc.failed + 1 }
      | Timed_out _ -> { acc with timed_out = acc.timed_out + 1 }
      | Truncated _ -> { acc with truncated = acc.truncated + 1 })
    { ok = 0; failed = 0; timed_out = 0; truncated = 0; retried = 0 }
    report.job_reports

let total_wall results =
  List.fold_left
    (fun acc result -> acc +. result.telemetry.wall_seconds)
    0.0 results

let aggregate_host_mips results =
  let committed =
    List.fold_left
      (fun acc (result : result) ->
        Int64.add acc (Stats.get Stats.committed result.outcome.stats))
      0L results
  in
  let wall = total_wall results in
  if wall > 0.0 then Int64.to_float committed /. wall /. 1e6 else 0.0

(* ------------------------------------------------------------------ *)
(* Metrics export: per-job engine metrics and sweep-wide stall causes,
   for `resim sweep --metrics` and report tooling.                     *)

let aggregate_stall_causes results =
  List.fold_left
    (fun acc (result : result) ->
      List.map2
        (fun (name, total) (_, v) -> (name, Int64.add total v))
        acc
        (Stats.stall_causes result.outcome.stats))
    (Stats.stall_causes (Stats.create ()))
    results

let pp_stalls ppf results =
  Format.fprintf ppf "@[<v>stall causes (all completed jobs):@,";
  List.iter
    (fun (name, value) -> Format.fprintf ppf "  %-20s %Ld@," name value)
    (aggregate_stall_causes results);
  Format.fprintf ppf "@]"

let outcome_tag = function
  | Ok _ -> "ok"
  | Failed failure -> failure_code failure
  | Timed_out _ -> "timed-out"
  | Truncated _ -> "truncated"

let metrics_json report =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "{\"jobs\":[";
  List.iteri
    (fun i jr ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer
        (Printf.sprintf "{\"label\":\"%s\",\"outcome\":\"%s\",\"attempts\":%d"
           (Resim_core.Json.escape jr.job.label)
           (outcome_tag jr.outcome)
           jr.attempts);
      (match jr.outcome with
      | Ok result | Truncated (result, _) ->
          Buffer.add_string buffer
            (Printf.sprintf
               ",\"telemetry\":{\"wall_seconds\":%.6f,\"host_mips\":%.4f}"
               result.telemetry.wall_seconds result.telemetry.host_mips);
          (match result.sample_report with
          | Some report ->
              Buffer.add_string buffer ",\"sample\":";
              Buffer.add_string buffer
                (Resim_sample.Sample.report_to_json report)
          | None -> ());
          Buffer.add_string buffer ",\"metrics\":";
          Buffer.add_string buffer (Stats.to_json result.outcome.stats)
      | Failed _ | Timed_out _ -> Buffer.add_string buffer ",\"metrics\":null");
      Buffer.add_char buffer '}')
    report.job_reports;
  Buffer.add_string buffer "]}";
  Buffer.contents buffer

let scale_tag job =
  match job.scale with
  | Default -> "default"
  | Evaluation ->
      let module K = (val job.workload : Resim_workloads.Kernel_sig.S) in
      string_of_int K.evaluation_scale
  | Exact scale -> string_of_int scale

let pp_table ppf results =
  let v5 = Resim_fpga.Device.virtex5_xc5vlx50t in
  Format.fprintf ppf "@[<v>%-22s %-8s %8s %3s %4s %-9s %12s %7s %10s %8s %10s@,"
    "label" "kernel" "scale" "N" "ROB" "org" "major cyc" "IPC" "MIPS V5"
    "wall s" "host MIPS";
  List.iter
    (fun (result : result) ->
      let config = result.job.config in
      Format.fprintf ppf
        "%-22s %-8s %8s %3d %4d %-9s %12Ld %7.3f %10.2f %8.2f %10.3f@,"
        result.job.label
        (Resim_workloads.Workload.name_of result.job.workload)
        (scale_tag result.job) config.width config.rob_entries
        (Config.organization_name config.organization)
        (Stats.get Stats.major_cycles result.outcome.stats)
        (Stats.ipc result.outcome.stats)
        (Resim_core.Resim.mips result.outcome ~device:v5)
        result.telemetry.wall_seconds result.telemetry.host_mips)
    results;
  Format.fprintf ppf
    "@,%d job(s); serial-equivalent wall %.2f s; aggregate host %.3f MIPS@]"
    (List.length results) (total_wall results)
    (aggregate_host_mips results)

let pp_failures ppf report =
  let failed = failures report in
  Format.fprintf ppf "@[<v>%-22s %-14s %-9s detail@," "label" "outcome"
    "attempts";
  List.iter
    (fun jr ->
      match jr.outcome with
      | Failed failure ->
          Format.fprintf ppf "%-22s %-14s %-9d %s@," jr.job.label
            (failure_code failure) jr.attempts (failure_to_string failure)
      | Timed_out seconds ->
          Format.fprintf ppf "%-22s %-14s %-9d deadline hit after %.2f s@,"
            jr.job.label "timed-out" jr.attempts seconds
      | Ok _ | Truncated _ -> ())
    failed;
  Format.fprintf ppf "%d of %d job(s) failed@]" (List.length failed)
    (List.length report.job_reports)
