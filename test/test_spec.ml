(* Differential tests for the production engine (DESIGN.md §8): the
   staged Scan/Event cycle behind [Engine.step] must be bit-identical to
   the Scan oracle ([Engine.reference_step]) — same cycles, same full
   statistics dump, same observer event stream — on the kernel grid,
   on random configurations and traces, and through checkpoint
   resume. *)

open Resim_core
module Cache = Resim_cache.Cache
module Predictor = Resim_bpred.Predictor
module Synthetic = Resim_tracegen.Synthetic

let check = Alcotest.check
let string = Alcotest.string

let stats_dump stats = Format.asprintf "%a" Stats.pp stats

(* ------------------------------------------------------------------- *)
(* Engine runs with an event-stream signature: every observer event is
   folded into a compact string, so stream equality is equality of the
   whole pipetrace (order included), not just of final counters. *)

let attach_signature engine buffer =
  Engine.set_observer engine (fun event ->
      Buffer.add_string buffer
        (match event with
        | Engine.Ev_fetch _ -> "F"
        | Engine.Ev_dispatch e -> Printf.sprintf "D%d" e.Entry.id
        | Engine.Ev_issue e -> Printf.sprintf "I%d" e.Entry.id
        | Engine.Ev_complete e -> Printf.sprintf "C%d" e.Entry.id
        | Engine.Ev_commit e -> Printf.sprintf "R%d" e.Entry.id
        | Engine.Ev_squash e -> Printf.sprintf "Q%d" e.Entry.id
        | Engine.Ev_flush_frontend -> "X"
        | Engine.Ev_stall reason ->
            "s" ^ Engine.stall_reason_name reason);
      Buffer.add_char buffer ';')

type run = { cycles : int64; dump : string; events : string }

(* The oracle has no watchdog of its own; a run this long on a test
   trace is a hang. *)
let oracle_cycle_limit = 10_000_000L

let run_engine ~oracle config records =
  let engine = Engine.create ~config records in
  let buffer = Buffer.create 4096 in
  attach_signature engine buffer;
  if oracle then
    while not (Engine.finished engine) do
      if Int64.compare (Engine.cycle engine) oracle_cycle_limit >= 0 then
        Alcotest.fail "Scan oracle made no progress";
      Engine.reference_step engine
    done
  else ignore (Engine.run engine : Stats.t);
  { cycles = Engine.cycle engine;
    dump = stats_dump (Engine.stats engine);
    events = Buffer.contents buffer }

let same a b =
  Int64.equal a.cycles b.cycles
  && String.equal a.dump b.dump
  && String.equal a.events b.events

let assert_matches_oracle ~name ~oracle config records =
  let production = run_engine ~oracle:false config records in
  check Alcotest.int64 (name ^ ": cycles") oracle.cycles production.cycles;
  check string (name ^ ": full stats dump") oracle.dump production.dump;
  check string (name ^ ": event stream") oracle.events production.events

(* ------------------------------------------------------------------- *)
(* Kernel differential: five kernels x the three organizations x both
   schedulers. The oracle ignores [scheduler], so one oracle run per
   (kernel, organization) anchors both production schedulers. *)

let kernel_records =
  lazy
    (List.map
       (fun kernel ->
         let name = Resim_workloads.Workload.name_of kernel in
         let program = Resim_workloads.Workload.program_of kernel () in
         (name, Resim_tracegen.Generator.records program))
       Resim_workloads.Workload.all)

let organizations = [ Config.Simple; Config.Improved; Config.Optimized ]
let schedulers = [ Config.Scan; Config.Event ]

let test_kernel_differential () =
  List.iter
    (fun (kernel, records) ->
      List.iter
        (fun organization ->
          let base = { Config.reference with Config.organization } in
          let oracle = run_engine ~oracle:true base records in
          List.iter
            (fun scheduler ->
              let name =
                Printf.sprintf "%s/%s/%s" kernel
                  (Config.organization_name organization)
                  (Config.scheduler_name scheduler)
              in
              assert_matches_oracle ~name ~oracle
                { base with Config.scheduler }
                records)
            schedulers)
        organizations)
    (Lazy.force kernel_records)

(* ------------------------------------------------------------------- *)
(* Checkpoint resume: a budget-truncated production run must hand back
   a checkpoint whose resumed statistics equal the oracle's
   uninterrupted run. *)

let test_checkpoint_resume () =
  let records = snd (List.hd (Lazy.force kernel_records)) in
  List.iter
    (fun config ->
      let name = Config.scheduler_name config.Config.scheduler in
      match Resim.simulate_robust ~config ~max_cycles:1000L records with
      | Error _ -> Alcotest.fail (name ^ ": bounded run failed")
      | Ok robust -> (
          match robust.Resim.resume with
          | None -> Alcotest.fail (name ^ ": expected a resume checkpoint")
          | Some checkpoint -> (
              match Resim.resume_trace ~config ~checkpoint records with
              | Error message -> Alcotest.fail message
              | Ok outcome ->
                  let oracle = run_engine ~oracle:true config records in
                  check string
                    (name ^ ": resumed run matches the oracle")
                    oracle.dump
                    (stats_dump outcome.Resim.stats))))
    [ Config.reference;
      { Config.fast_comparable with Config.scheduler = Config.Scan } ]

(* ------------------------------------------------------------------- *)
(* Random-configuration differential: any configuration that passes
   [Config.validate] — widths 1-8, window sizes, functional units,
   ports and penalties, every organization and scheduler, perfect or
   set-associative L1s with and without an L2, default or perfect
   predictor — on a random synthetic trace. *)

let l2_256k_8way =
  Cache.Set_associative
    { size_bytes = 256 * 1024; associativity = 8; block_bytes = 64 }

let config_gen =
  let open QCheck.Gen in
  let cache = oneofl [ Cache.Perfect; Cache.l1_32k_2way_64b; Cache.l1_32k_8way_64b ] in
  let* organization = oneofl organizations in
  let* scheduler = oneofl schedulers in
  (* Optimized supports at most N-1 memory ports, so it needs N >= 3. *)
  let optimized = Config.is_optimized organization in
  let* width = if optimized then int_range 3 8 else int_range 1 8 in
  let* mem_read_ports =
    if optimized then int_range 1 (width - 2) else int_range 1 4
  in
  let* mem_write_ports =
    if optimized then int_range 1 (width - 1 - mem_read_ports)
    else int_range 1 2
  in
  let* ifq_extra = int_range 0 4 in
  let* decouple_entries = int_range 1 8 in
  let* rob_entries = int_range width 48 in
  let* lsq_entries = int_range 1 16 in
  let* alu_count = int_range 1 8 in
  let* alu_latency = int_range 1 3 in
  let* mult_count = int_range 1 2 in
  let* mult_latency = int_range 1 6 in
  let* div_count = int_range 1 2 in
  let* div_latency = int_range 1 20 in
  let* misfetch_penalty = int_range 0 5 in
  let* misspeculation_penalty = int_range 0 5 in
  let* predictor =
    oneofl [ Predictor.default_config; Predictor.perfect_config ]
  in
  let* icache = cache in
  let* dcache = cache in
  let+ l2cache = oneofl [ None; Some l2_256k_8way ] in
  { Config.reference with
    Config.width;
    ifq_entries = width + ifq_extra;
    decouple_entries;
    rob_entries;
    lsq_entries;
    alu_count;
    alu_latency;
    mult_count;
    mult_latency;
    div_count;
    div_latency;
    mem_read_ports;
    mem_write_ports;
    misfetch_penalty;
    misspeculation_penalty;
    organization;
    scheduler;
    predictor;
    icache;
    dcache;
    l2cache }

let describe config =
  Format.asprintf "%a, predictor %s, icache %s, dcache %s, l2 %s" Config.pp
    config
    (if config.Config.predictor == Predictor.perfect_config then "perfect"
     else "default")
    (match config.Config.icache with
    | Cache.Perfect -> "perfect"
    | Cache.Set_associative g -> Printf.sprintf "%d-way" g.associativity)
    (match config.Config.dcache with
    | Cache.Perfect -> "perfect"
    | Cache.Set_associative g -> Printf.sprintf "%d-way" g.associativity)
    (match config.Config.l2cache with None -> "none" | Some _ -> "256K")

let trace_gen =
  let open QCheck.Gen in
  let* seed = int_bound 100_000 in
  let* instructions = int_range 150 400 in
  let+ working_set_bytes = oneofl [ 4096; 65536; 1 lsl 20 ] in
  (seed, instructions, working_set_bytes)

let staged_matches_oracle =
  QCheck.Test.make
    ~name:"staged cycle matches the Scan oracle on random configs"
    ~count:100
    (QCheck.make
       ~print:(fun (config, (seed, instructions, working_set_bytes)) ->
         Printf.sprintf "%s\ntrace seed %d, %d instructions, %d B working set"
           (describe config) seed instructions working_set_bytes)
       (QCheck.Gen.pair config_gen trace_gen))
    (fun (config, (seed, instructions, working_set_bytes)) ->
      let profile =
        { (Synthetic.balanced ~name:"spec-diff" ~instructions) with
          Synthetic.dependency_density = 0.5;
          mispredict_rate = 0.08;
          working_set_bytes }
      in
      let records = Synthetic.generate ~seed profile in
      Result.is_ok (Config.validate config)
      && same
           (run_engine ~oracle:true config records)
           (run_engine ~oracle:false config records))

(* ------------------------------------------------------------------- *)

let suite =
  [ ("spec:differential",
     [ Alcotest.test_case "kernels x organizations x schedulers" `Slow
         test_kernel_differential;
       Alcotest.test_case "checkpoint resume matches the oracle" `Quick
         test_checkpoint_resume;
       QCheck_alcotest.to_alcotest staged_matches_oracle ]) ]
