(** ReSim — trace-driven ILP processor timing simulation.

    High-level entry points tying the substrates together: generate a
    trace from an assembled program (or take a pre-built one), run the
    timing engine, and express the result as the paper does — simulation
    MIPS on a target FPGA device.

    {[
      let program = Resim_workloads.Gzip_like.program ~scale:1_000 in
      let outcome = Resim_core.Resim.simulate_program program in
      Format.printf "IPC %.2f, %.1f MIPS on Virtex-5@."
        (Resim_core.Stats.ipc outcome.stats)
        (Resim_core.Resim.mips outcome
           ~device:Resim_fpga.Device.virtex5_xc5vlx50t)
    ]} *)

val version : string

val engine_identity : Config.t -> string
(** ["<version>/<config hash>"] — the identity a checkpoint or cached
    result is only valid against. Stamped onto truncation checkpoints
    by {!run}, checked on resume ([RSM-K007]), and used as
    the engine component of the server's cache keys. *)

type outcome = {
  config : Config.t;
  stats : Stats.t;
  trace_summary : Resim_trace.Summary.t;
  bits_per_instruction : float;
      (** of the Fixed trace encoding, as in Table 3 *)
  icache_stats : Resim_cache.Cache.stats;
  dcache_stats : Resim_cache.Cache.stats;
}

val simulate_trace :
  ?config:Config.t ->
  ?instrument:(Engine.t -> unit) ->
  Resim_trace.Record.t array ->
  outcome
(** {!run} over an array source that raises instead of returning
    [Error]: {!Resim_trace.Fault.Trace_fault} or {!Engine.Deadlock}.
    [instrument] runs on the freshly created engine before the first
    cycle — the hook the observability sinks and probes attach
    through. *)

val simulate_program :
  ?config:Config.t ->
  ?generator:Resim_tracegen.Generator.config ->
  Resim_isa.Program.t ->
  outcome
(** Trace generation ({!Resim_tracegen.Generator}) followed by
    {!simulate_trace}. When [generator] is omitted, its predictor is
    taken from the engine configuration so the generator and the engine
    model the same front end. *)

(** {1 The run entry point}

    Structured failures instead of exceptions, graceful truncation under
    cycle/wall-clock budgets, and deterministic resume from a replay
    checkpoint. *)

(** Why a run could not produce statistics. *)
type failure =
  | Fault of Resim_trace.Fault.t
      (** the trace violated the format or tag-bit protocol *)
  | Deadlock of Engine.deadlock  (** the progress watchdog tripped *)
  | Resume of string
      (** the resume checkpoint belongs to another engine build
          ([RSM-K007]), trace or configuration *)

val failure_to_string : failure -> string

val raise_failure : failure -> 'a
(** Re-raise a failure as the exception a direct engine run throws:
    {!Resim_trace.Fault.Trace_fault}, {!Engine.Deadlock}, or [Failure]
    for a refused resume. *)

type robust = {
  outcome : outcome;
  stop : Engine.stop;
  resume : Checkpoint.t option;
      (** a replay checkpoint whenever the run was truncated *)
}

val run :
  ?config:Config.t ->
  ?watchdog:int ->
  ?max_cycles:int64 ->
  ?deadline:(unit -> bool) ->
  ?instrument:(Engine.t -> unit) ->
  ?driver:(Engine.t -> Engine.bounded) ->
  ?resume:Checkpoint.t ->
  Source.t ->
  (robust, failure) result
(** Build an engine over [source] and run it under fault domains.
    Trace faults (including a pull that raises
    {!Resim_trace.Fault.Trace_fault}) and deadlocks come back as
    [Error]; the cycle budget [max_cycles] (absolute major cycles) and
    the wall-clock [deadline] truncate gracefully with partial
    statistics and a resume checkpoint stamped with
    {!engine_identity}.

    [instrument] runs on the freshly created engine before the first
    cycle, so callers can attach observability sinks
    ({!Engine.set_observer}) or phase probes ({!Engine.set_phase_probe})
    without building the engine themselves. [driver] replaces
    {!Engine.run_bounded} as the run loop — the sampled-simulation
    driver ({!Resim_sample.Sample}) uses it to alternate functional
    warm-up and detailed intervals; when given, it owns all budget
    handling and [max_cycles]/[deadline] are ignored.

    [resume] continues a truncated run deterministically: the checkpoint's
    engine identity is checked first ([RSM-K007]), then the engine
    replays [source] from its start to the checkpoint cycle and the
    cursor and every statistics register must match the snapshot; a
    mismatch is [Error (Resume _)]. The run then continues under the
    same budgets, so a resumed run can truncate (and checkpoint) again,
    and a drained one is bit-identical to an uninterrupted run.

    The outcome's trace summary and Fixed-format [bits_per_instruction]
    count the records the engine consumed — those below its final
    cursor ({!Source.consumed}) — for every kind of source, so a drained
    run reports the whole trace however it arrived. *)

val simulate_pull_robust :
  ?config:Config.t ->
  ?watchdog:int ->
  ?max_cycles:int64 ->
  ?deadline:(unit -> bool) ->
  ?instrument:(Engine.t -> unit) ->
  (unit -> Resim_trace.Record.t option) ->
  (robust, failure) result
(** [run] over [Source.of_pull pull]. Kept for the external benchmark
    harness; new code calls {!run}. *)

(** {1 Paper metrics} *)

val mips : outcome -> device:Resim_fpga.Device.t -> float
(** Table 1 metric: committed instructions per second when ReSim runs at
    the device's minor-cycle frequency, in MIPS. *)

val mips_with_wrong_path : outcome -> device:Resim_fpga.Device.t -> float
(** Table 3 metric: all fetched records count. *)

val trace_bandwidth_mbytes : outcome -> device:Resim_fpga.Device.t -> float
(** Table 3 metric: input trace bandwidth demand in MB/s. *)

val pp_outcome : Format.formatter -> outcome -> unit
