let version = "1.0.0"

(* Identity of "this engine build running this configuration" — what a
   checkpoint or cache entry is only valid against. The version pins
   the build; the config hash pins every simulated-machine parameter. *)
let engine_identity config = version ^ "/" ^ Hash.config config

type outcome = {
  config : Config.t;
  stats : Stats.t;
  trace_summary : Resim_trace.Summary.t;
  bits_per_instruction : float;
  icache_stats : Resim_cache.Cache.stats;
  dcache_stats : Resim_cache.Cache.stats;
}

(* ------------------------------------------------------------------ *)
(* The one run entry point: structured failures instead of exceptions,
   graceful truncation under cycle/wall-clock budgets, deterministic
   resume from a replay checkpoint. *)

type failure =
  | Fault of Resim_trace.Fault.t
  | Deadlock of Engine.deadlock
  | Resume of string

let failure_to_string = function
  | Fault fault -> Resim_trace.Fault.to_string fault
  | Deadlock d -> Format.asprintf "deadlock: %a" Engine.pp_deadlock d
  | Resume reason -> "resume failed: " ^ reason

let raise_failure = function
  | Fault fault -> raise (Resim_trace.Fault.Trace_fault fault)
  | Deadlock deadlock -> raise (Engine.Deadlock deadlock)
  | Resume _ as failure -> failwith (failure_to_string failure)

type robust = {
  outcome : outcome;
  stop : Engine.stop;
  resume : Checkpoint.t option;  (* Some whenever the run was truncated *)
}

exception Refused of string

(* Replay a fresh engine to the checkpoint cycle and verify that the
   cursor and every statistics register match the snapshot — a mismatch
   means the checkpoint belongs to a different trace or configuration. *)
let replay ?watchdog engine (checkpoint : Checkpoint.t) =
  let target = checkpoint.cycle in
  ignore (Engine.run_bounded ?watchdog ~max_cycles:target engine);
  if Int64.compare (Engine.cycle engine) target <> 0 then
    raise
      (Refused
         (Printf.sprintf
            "trace drains at cycle %Ld, before the checkpoint cycle %Ld — \
             wrong trace for this checkpoint"
            (Engine.cycle engine) target))
  else if Engine.cursor engine <> checkpoint.cursor then
    raise
      (Refused
         (Printf.sprintf
            "cursor mismatch at checkpoint cycle: replayed %d, recorded %d — \
             wrong trace or configuration"
            (Engine.cursor engine) checkpoint.cursor))
  else if Stats.to_assoc (Engine.stats engine) <> checkpoint.counters then
    raise
      (Refused
         "statistics mismatch at checkpoint cycle — wrong trace or \
          configuration")

let run ?(config = Config.reference) ?watchdog ?max_cycles ?deadline
    ?instrument ?driver ?resume source =
  let identity = engine_identity config in
  match
    (* Identity first (RSM-K007): refusing a foreign-build handle
       outright beats letting the replay run to a baffling statistics
       mismatch. *)
    Option.iter
      (fun checkpoint ->
        match Checkpoint.verify_engine ~expected:identity checkpoint with
        | Ok () -> ()
        | Error error -> raise (Refused (Checkpoint.error_to_string error)))
      resume;
    let engine = Engine.create_from_source ~config source in
    (* Observability hook: attach sinks/probes to the freshly created
       engine before the first cycle runs. *)
    Option.iter (fun f -> f engine) instrument;
    Option.iter (replay ?watchdog engine) resume;
    let bounded =
      match driver with
      | Some drive -> drive engine
      | None -> Engine.run_bounded ?watchdog ?max_cycles ?deadline engine
    in
    let trace_summary, bits_per_instruction =
      Source.consumed source (Engine.cursor engine)
    in
    ( { config;
        stats = bounded.Engine.final;
        trace_summary;
        bits_per_instruction;
        icache_stats = Resim_cache.Cache.stats (Engine.icache engine);
        dcache_stats = Resim_cache.Cache.stats (Engine.dcache engine) },
      bounded )
  with
  | outcome, bounded ->
      (* Truncation handles carry the engine identity so a client
         holding one cannot replay it on a different build or
         configuration (RSM-K007 at resume). *)
      Ok
        { outcome;
          stop = bounded.stop;
          resume =
            Option.map (Checkpoint.with_engine identity) bounded.resume }
  | exception Resim_trace.Fault.Trace_fault fault -> Error (Fault fault)
  | exception Engine.Deadlock deadlock -> Error (Deadlock deadlock)
  | exception Refused reason -> Error (Resume reason)

let simulate_trace ?config ?instrument records =
  Result.fold ~ok:(fun robust -> robust.outcome) ~error:raise_failure
    (run ?config ?instrument (Source.of_array records))

(* Kept only for perfbench/perfbench.ml, the frozen benchmark harness,
   which calls it; new code calls [run]. *)
let simulate_pull_robust ?config ?watchdog ?max_cycles ?deadline ?instrument p =
  run ?config ?watchdog ?max_cycles ?deadline ?instrument (Source.of_pull p)

let simulate_program ?(config = Config.reference) ?generator program =
  let generator =
    match generator with
    | Some generator_config -> generator_config
    | None ->
        { Resim_tracegen.Generator.default_config with
          predictor = config.predictor;
          wrong_path_limit = config.rob_entries + config.ifq_entries }
  in
  let records = Resim_tracegen.Generator.records ~config:generator program in
  simulate_trace ~config records

let mips outcome ~device =
  Resim_fpga.Throughput.mips ~mhz:device.Resim_fpga.Device.minor_cycle_mhz
    ~minor_cycles_per_major:(Config.minor_cycle_latency outcome.config)
    ~instructions:(Stats.get Stats.committed outcome.stats)
    ~major_cycles:(Stats.get Stats.major_cycles outcome.stats)

let mips_with_wrong_path outcome ~device =
  Resim_fpga.Throughput.mips ~mhz:device.Resim_fpga.Device.minor_cycle_mhz
    ~minor_cycles_per_major:(Config.minor_cycle_latency outcome.config)
    ~instructions:(Stats.get Stats.fetched outcome.stats)
    ~major_cycles:(Stats.get Stats.major_cycles outcome.stats)

let trace_bandwidth_mbytes outcome ~device =
  Resim_fpga.Throughput.trace_mbytes_per_second
    ~mips:(mips_with_wrong_path outcome ~device)
    ~bits_per_instruction:outcome.bits_per_instruction

let pp_outcome ppf outcome =
  Format.fprintf ppf "@[<v>configuration:@,  @[<v>%a@]@,trace:@,  @[<v>%a@]@,\
                      engine:@,  @[<v>%a@]@,trace encoding: %.2f bits/instr@]"
    Config.pp outcome.config Resim_trace.Summary.pp outcome.trace_summary
    Stats.pp outcome.stats outcome.bits_per_instruction
