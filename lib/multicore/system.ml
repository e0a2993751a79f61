type core_spec = {
  name : string;
  source : Resim_core.Source.t;
  config : Resim_core.Config.t;
}

type core = {
  spec : core_spec;
  engine : Resim_core.Engine.t;
  mutable finished_at : int64 option;
  mutable fault : Resim_trace.Fault.t option;
      (* the core's stream died mid-run: it stopped, but did not drain *)
}

type t = { cores : core list; mutable clock : int64 }

let create specs =
  if specs = [] then invalid_arg "System.create: no cores";
  (match specs with
  | first :: rest ->
      List.iter
        (fun spec ->
          if
            spec.config.Resim_core.Config.organization
            <> first.config.Resim_core.Config.organization
            || spec.config.width <> first.config.width
          then
            invalid_arg
              "System.create: co-resident cores must share organization \
               and width")
        rest
  | [] -> ());
  let cores =
    List.map
      (fun spec ->
        { spec;
          engine =
            Resim_core.Engine.create_from_source ~config:spec.config
              spec.source;
          finished_at = None;
          fault = None })
      specs
  in
  { cores; clock = 0L }

let core_count t = List.length t.cores

let finished t =
  List.for_all (fun core -> core.finished_at <> None) t.cores

let step t =
  t.clock <- Int64.add t.clock 1L;
  List.iter
    (fun core ->
      match core.finished_at with
      | Some _ -> ()
      | None -> (
          (* A stream fault kills this core only: it stops at the
             current lockstep cycle with its prefix statistics, marked
             not-drained, and the other cores keep running. *)
          match Resim_core.Engine.step core.engine with
          | () ->
              if Resim_core.Engine.finished core.engine then
                core.finished_at <- Some t.clock
          | exception Resim_trace.Fault.Trace_fault fault ->
              core.fault <- Some fault;
              core.finished_at <- Some t.clock))
    t.cores

let faulted t = List.exists (fun core -> core.fault <> None) t.cores

let run ?(max_cycles = 1_000_000_000L) t =
  while (not (finished t)) && Int64.compare t.clock max_cycles < 0 do
    step t
  done;
  (* A core whose stream died stopped without draining: that is a
     truncated system run even though every core has stopped. *)
  if finished t && not (faulted t) then `Finished else `Truncated

type core_result = {
  core : string;
  stats : Resim_core.Stats.t;
  finished_at : int64;
  drained : bool;
  fault : Resim_trace.Fault.t option;
}

let results t =
  List.map
    (fun core ->
      { core = core.spec.name;
        stats = Resim_core.Engine.stats core.engine;
        finished_at = Option.value core.finished_at ~default:t.clock;
        drained = core.finished_at <> None && core.fault = None;
        fault = core.fault })
    t.cores

let elapsed_cycles t = t.clock

let aggregate_committed t =
  List.fold_left
    (fun acc core ->
      Int64.add acc
        (Resim_core.Stats.get Resim_core.Stats.committed
           (Resim_core.Engine.stats core.engine)))
    0L t.cores

let shared_latency t =
  match t.cores with
  | core :: _ -> Resim_core.Config.minor_cycle_latency core.spec.config
  | [] -> assert false

let aggregate_mips t ~device =
  Resim_fpga.Throughput.mips
    ~mhz:device.Resim_fpga.Device.minor_cycle_mhz
    ~minor_cycles_per_major:(shared_latency t)
    ~instructions:(aggregate_committed t) ~major_cycles:t.clock

let area_params (config : Resim_core.Config.t) =
  { Resim_fpga.Area.reference_params with
    width = config.width;
    ifq_entries = config.ifq_entries;
    decouple_entries = config.decouple_entries;
    rob_entries = config.rob_entries;
    lsq_entries = config.lsq_entries;
    with_icache = config.icache <> Resim_cache.Cache.Perfect;
    with_dcache = config.dcache <> Resim_cache.Cache.Perfect }

let area t =
  match t.cores with
  | core :: _ -> Resim_fpga.Area.estimate (area_params core.spec.config)
  | [] -> assert false

let fits t device =
  Resim_fpga.Area.instances_fitting (area t) device >= core_count t

let pp ppf t =
  Format.fprintf ppf "@[<v>%d cores, lockstep cycle %Ld@," (core_count t)
    t.clock;
  List.iter
    (fun result ->
      if result.drained then
        Format.fprintf ppf "%-10s committed %Ld, IPC %.3f, drained at %Ld@,"
          result.core
          (Resim_core.Stats.get Resim_core.Stats.committed result.stats)
          (Resim_core.Stats.ipc result.stats)
          result.finished_at
      else
        Format.fprintf ppf
          "%-10s committed %Ld, IPC %.3f, TRUNCATED at %Ld@," result.core
          (Resim_core.Stats.get Resim_core.Stats.committed result.stats)
          (Resim_core.Stats.ipc result.stats)
          result.finished_at)
    (results t);
  Format.fprintf ppf "@]"
