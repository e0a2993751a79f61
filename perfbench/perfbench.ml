(* Helper executable of the ReSim benchmark (perfbench/run.py).

   run.py drives the user surfaces ([resim simulate], [resim sweep],
   [resim serve]) from outside; this program does the parts that need
   the libraries themselves:

     gen KERNEL SCALE OUT       write a reference-configuration trace
     text KERNEL SCALE OUT      write a text-profile foreign trace
     serve-load SOCKET PLAN SECONDS OUT [SPANS]
                                closed-loop resimd clients, one domain
                                per plan client, via Resim_serve.Client
     layers WORKLOAD DIR JOBS SPANS [INPUT...]
                                the traced per-layer suite; a served
                                INPUT is TRACE,WIDTH,ROB,LSQ

   Every subcommand prints one JSON object on stdout. Spans (name,
   start, end, parent, request id) are kept in memory and written as
   JSONL at the end. *)

module Record = Resim_trace.Record
module Codec = Resim_trace.Codec
module Tstream = Resim_trace.Stream
module Adapter = Resim_trace.Adapter
module Generator = Resim_tracegen.Generator
module Config = Resim_core.Config
module Resim = Resim_core.Resim
module Stats = Resim_core.Stats
module Json = Resim_core.Json
module Spec = Resim_spec.Spec
module Sweep = Resim_sweep.Sweep
module Protocol = Resim_serve.Protocol
module Client = Resim_serve.Client
module Workload = Resim_workloads.Workload

let now = Unix.gettimeofday
let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* --- spans ------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* 0 = root *)
  request : string;
}

let tracing = ref true
let recorded : span list ref = ref []
let next_id = ref 0

(* [span ~request name f] runs [f id] and returns its result with the
   elapsed seconds; [id] is the parent to give child spans. With
   [tracing] off the call is timed but nothing is kept, which is what
   the trace-overhead comparison measures. *)
let span ?(parent = 0) ~request name f =
  incr next_id;
  let id = !next_id in
  let start = now () in
  let result = f id in
  let stop = now () in
  if !tracing then
    recorded := { id; name; start; stop; parent; request } :: !recorded;
  (result, stop -. start)

(* A span whose times are already known; returns its id. *)
let record ?(parent = 0) ~request name start stop =
  incr next_id;
  if !tracing then
    recorded :=
      { id = !next_id; name; start; stop; parent; request } :: !recorded;
  !next_id

let span_json s =
  Printf.sprintf
    "{\"id\": %d, \"name\": %s, \"start\": %.6f, \"end\": %.6f, \
     \"parent\": %d, \"request\": %s}"
    s.id (Json.quote s.name) s.start s.stop s.parent (Json.quote s.request)

let write_spans path spans =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (span_json s ^ "\n")) spans;
  close_out oc

(* Self time: the span's duration minus what its children cover
   (children of one parent never overlap here: calls are serial). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (prev +. (s.stop -. s.start)))
    spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      (s, s.stop -. s.start -. covered))
    spans

(* --- small helpers ----------------------------------------------- *)

let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (Json.quote k) v) fields)
  ^ "}"

let num x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

let committed (o : Resim.outcome) = Stats.get_int Stats.committed o.stats

let generate kernel scale =
  let program = Workload.program_of (Workload.find kernel) ~scale () in
  Generator.run ~config:(Sweep.generator_config Config.reference) program

(* Text profile: <PC hex> <op> <dst> <src1> <src2>, -1 = no register.
   Wrong-path records are dropped (foreign traces carry none; the
   adapter synthesizes its own). *)
let write_text path records =
  let oc = open_out path in
  let reg r = if r = 0 then -1 else r in
  let lines = ref 0 in
  Array.iter
    (fun (r : Record.t) ->
      if not r.wrong_path then begin
        let op =
          match r.payload with
          | Record.Other { op_class = Record.Mult } -> 1
          | Record.Other { op_class = Record.Divide } -> 2
          | _ -> 0
        in
        Printf.fprintf oc "%x %d %d %d %d\n" (r.pc * 4) op (reg r.dest)
          (reg r.src1) (reg r.src2);
        incr lines
      end)
    records;
  close_out oc;
  !lines

(* --- gen / text -------------------------------------------------- *)

let cmd_gen kernel scale out =
  let g = generate kernel (int_of_string scale) in
  Codec.write_file out g.records;
  print_endline
    (json_obj
       [ ("records", string_of_int (Array.length g.records));
         ("correct", string_of_int g.correct_path);
         ("wrong", string_of_int g.wrong_path) ])

let cmd_text kernel scale out =
  let g = generate kernel (int_of_string scale) in
  let lines = write_text out g.records in
  print_endline (json_obj [ ("lines", string_of_int lines) ])

(* --- serve-load -------------------------------------------------- *)

(* Plan lines: CLIENT KEY KIND TRACE WIDTH ROB LSQ, where "-" leaves
   the reference value. Each client runs its lines in order, one
   request at a time (closed loop), and starts no new request once
   SECONDS have passed. *)
type planned = {
  client : int;
  key : string;
  kind : string;
  spec : Protocol.config_spec;
  trace : string;
}

let read_plan path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ client; key; kind; trace; width; rob; lsq ] ->
            let field = function "-" -> None | v -> Some (int_of_string v) in
            let spec =
              { Protocol.reference_spec with
                Protocol.width = field width;
                rob = field rob;
                lsq = field lsq }
            in
            go
              ({ client = int_of_string client; key; kind; spec; trace }
              :: acc)
        | [ "" ] -> go acc
        | _ -> fail "bad plan line: %s" line)
  in
  go []

type served = {
  job : planned;
  submitted : float;
  accepted : float option;
  finished : float;
  terminal : (Protocol.event, Client.error) result;
}

let request_of (job : planned) =
  { Protocol.client = Printf.sprintf "bench-%d" job.client;
    body =
      Protocol.Simulate
        { Protocol.kernel = "gzip";
          scale = None;
          trace = Some job.trace;
          config = job.spec;
          max_cycles = None;
          timeout = None;
          sample = None } }

(* The spawned closure keeps everything it mutates local to its own
   domain and returns the results for joining. *)
let client_loop ~socket ~deadline jobs () =
  let rec go acc = function
    | [] -> List.rev acc
    | _ when now () >= deadline -> List.rev acc
    | job :: rest ->
        let accepted = ref None in
        let submitted = now () in
        let terminal =
          Client.converse ~socket
            ~on_event:(function
              | Protocol.Accepted _ -> accepted := Some (now ())
              | _ -> ())
            (request_of job)
        in
        let finished = now () in
        go ({ job; submitted; accepted = !accepted; finished; terminal } :: acc)
          rest
  in
  go [] jobs

let v5_mips spec metrics =
  match (Protocol.resolve_config spec, Json.parse metrics) with
  | Ok config, Ok doc -> (
      let counter name =
        Option.bind (Json.member "counters" doc) (Json.member name)
        |> Fun.flip Option.bind Json.number_value
      in
      match (counter "committed", counter "major_cycles") with
      | Some c, Some m ->
          Resim_fpga.Throughput.mips
            ~mhz:Resim_fpga.Device.virtex5_xc5vlx50t.minor_cycle_mhz
            ~minor_cycles_per_major:(Config.minor_cycle_latency config)
            ~instructions:(Int64.of_float c) ~major_cycles:(Int64.of_float m)
      | _ -> nan)
  | _ -> nan

(* [started] is when the load began: [done_s] places the completion in
   the measuring window. *)
let served_json ~started (r : served) =
  let ms a b = (b -. a) *. 1000. in
  let base =
    [ ("client", string_of_int r.job.client);
      ("done_s", num (r.finished -. started));
      ("key", Json.quote r.job.key);
      ("kind", Json.quote r.job.kind);
      ("latency_ms", num (ms r.submitted r.finished));
      ( "accept_ms",
        match r.accepted with
        | Some t -> num (ms r.submitted t)
        | None -> "null" ) ]
  in
  let tail =
    match r.terminal with
    | Ok (Protocol.Done p) ->
        [ ("outcome", Json.quote p.outcome);
          ("exit", string_of_int p.exit_code);
          ("cached", string_of_bool p.cached);
          ( "metrics",
            match p.metrics with Some m -> Json.quote m | None -> "null" );
          ( "v5_mips",
            match p.metrics with
            | Some m -> num (v5_mips r.job.spec m)
            | None -> "null" ) ]
    | Ok (Protocol.Rejected why) ->
        [ ("outcome", Json.quote "rejected");
          ("rejected", Json.quote (Protocol.rejection_tag why)) ]
    | Ok _ -> [ ("outcome", Json.quote "unexpected-event") ]
    | Error e -> [ ("outcome", Json.quote ("error: " ^ Client.error_to_string e)) ]
  in
  json_obj (base @ tail)

let status_rtts ~socket n =
  List.init n (fun _ ->
      let t0 = now () in
      ignore
        (Client.converse ~socket
           { Protocol.client = "bench-status"; body = Protocol.Status });
      (now () -. t0) *. 1000.)

let cmd_serve_load socket plan seconds out spans_out =
  let jobs = read_plan plan in
  let clients =
    List.sort_uniq compare (List.map (fun (j : planned) -> j.client) jobs)
  in
  let started = now () in
  let deadline = started +. float_of_string seconds in
  let domains =
    List.map
      (fun c ->
        let mine = List.filter (fun (j : planned) -> j.client = c) jobs in
        Domain.spawn (client_loop ~socket ~deadline mine))
      clients
  in
  let results = List.concat_map Domain.join domains in
  let wall = now () -. started in
  let oc = open_out out in
  List.iter (fun r -> output_string oc (served_json ~started r ^ "\n")) results;
  close_out oc;
  let rtts = match spans_out with Some _ -> status_rtts ~socket 20 | None -> [] in
  (match spans_out with
  | None -> ()
  | Some path ->
      List.iter
        (fun r ->
          let request = r.job.key in
          let parent =
            record ~request "serve.request" r.submitted r.finished
          in
          match r.accepted with
          | Some t ->
              ignore (record ~parent ~request "serve.accept" r.submitted t);
              ignore (record ~parent ~request "serve.queue_run" t r.finished)
          | None -> ())
        results;
      write_spans path (List.rev !recorded));
  print_endline
    (json_obj
       [ ("wall_s", num wall);
         ("jobs", string_of_int (List.length results));
         ("status_rtt_ms", num (median rtts)) ])

(* --- layers ------------------------------------------------------ *)

let spec_auto = Spec.instrument Spec.Auto

(* The CLI's `sweep --quick` grid: every ablation request at its
   kernel's default scale, duplicates dropped. *)
let quick_grid () =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun request ->
      let job = Resim_reports.Runner.job_of_request request in
      let job = { job with Sweep.scale = Sweep.Default } in
      let key = (Workload.name_of job.workload, job.config, job.scale) in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some job
      end)
    (Resim_reports.Ablations.requests ())

(* One CLI request's library calls: materializing read, engine,
   metrics emission ([simulate -t FILE --metrics]). *)
let replay_file ~request path =
  span ~request "request.replay_file" (fun parent ->
      let (records, _), _ =
        span ~parent ~request "trace.read_file" (fun _ -> Codec.read_file path)
      in
      let outcome, _ =
        span ~parent ~request "core.simulate_trace" (fun _ ->
            Resim.simulate_trace ~config:Config.reference ~instrument:spec_auto
              records)
      in
      ignore (span ~parent ~request "core.stats_json" (fun _ ->
          Stats.to_json outcome.stats)))
  |> snd

let pull_run ~parent ~request ~config ~instrument pull =
  match
    fst
      (span ~parent ~request "core.simulate_pull" (fun _ ->
           Resim.simulate_pull_robust ~config ?instrument pull))
  with
  | Ok r ->
      ignore
        (span ~parent ~request "core.stats_json" (fun _ ->
             Stats.to_json r.outcome.stats))
  | Error f -> fail "%s: %s" request (Resim.failure_to_string f)

(* [simulate --stream -t FILE] (or [--format text]) and, with
   [served], the worker's share of a resimd job: stream, generic
   engine, metrics. *)
let replay_stream ?(served = false) ?(config = Config.reference) ~request
    path =
  let instrument = if served then None else Some spec_auto in
  span ~request
    (if served then "request.served_job" else "request.replay_stream")
    (fun parent ->
      if Filename.check_suffix path ".txt" then begin
        let ic = open_in_bin path in
        let adapter = Adapter.of_channel ~format:Adapter.Text ~file:path ic in
        pull_run ~parent ~request ~config ~instrument (Adapter.pull_exn adapter);
        close_in ic
      end
      else
        match Tstream.open_path path with
        | Ok stream ->
            pull_run ~parent ~request ~config ~instrument (fun () ->
                Tstream.next stream)
        | Error e -> fail "%s: %s" path (Codec.error_to_string e))
  |> snd

let sweep_job ~request (job : Sweep.job) =
  snd
    (span ~request "sweep.run_job" (fun parent ->
         let start = now () in
         let r = Sweep.run_job ~instrument:spec_auto job in
         (* run_job generates, then simulates; telemetry times the
            simulate phase, which comes last. *)
         let stop = now () in
         let engine = stop -. r.telemetry.wall_seconds in
         ignore (record ~parent ~request "tracegen.run" start engine);
         ignore (record ~parent ~request "core.engine" engine stop)))

(* A served INPUT: TRACE,WIDTH,ROB,LSQ with "-" for the reference
   value, resolved the way the daemon resolves a request. *)
let served_input input =
  match String.split_on_char ',' input with
  | [ trace; width; rob; lsq ] -> (
      let field = function "-" -> None | v -> Some (int_of_string v) in
      let spec =
        { Protocol.reference_spec with
          Protocol.width = field width;
          rob = field rob;
          lsq = field lsq }
      in
      match Protocol.resolve_config spec with
      | Ok config -> (trace, config)
      | Error e -> fail "%s: %s" input e)
  | _ -> fail "bad served input %s" input

(* Trace-overhead: the workload's request replica with the recorder
   off and on, in the orders off-on then on-off so that warm-up and
   drift cancel; ratio of the summed walls. *)
let overhead replica =
  let pass on =
    tracing := on;
    let t = replica () in
    tracing := true;
    t
  in
  let off1 = pass false in
  let on1 = pass true in
  let on2 = pass true in
  let off2 = pass false in
  (on1 +. on2) /. (off1 +. off2)

let cmd_layers workload dir jobs spans_out inputs =
  let jobs = int_of_string jobs in
  let request = "layers" in
  let metrics = ref [] in
  let put name v = metrics := (name, num v) :: !metrics in
  (* tracegen: the shared layer trace, same for every workload *)
  let g, gen_s =
    span ~request "tracegen.run" (fun _ -> generate "gzip" 16384)
  in
  let records = g.records in
  let n = float_of_int (Array.length records) in
  put "tracegen.records_per_s" (n /. gen_s);
  let path = Filename.concat dir "layer.rtr" in
  Codec.write_file path records;
  (* trace: materializing read *)
  let w0 = words () in
  let (decoded, _), read_s =
    span ~request "trace.read_file" (fun _ -> Codec.read_file path)
  in
  let read_words = words () -. w0 in
  let bytes = float_of_int (Unix.stat path).Unix.st_size in
  put "trace.read_mb_per_s" (bytes /. 1e6 /. read_s);
  put "trace.read_words_per_record" (read_words /. n);
  (* trace: chunked cursor drain, no engine *)
  let w0 = words () in
  let count, cursor_s =
    span ~request "trace.cursor_drain" (fun _ ->
        match Tstream.open_file path with
        | Ok s -> Tstream.fold (fun k _ -> k + 1) 0 s
        | Error e -> fail "%s" (Codec.error_to_string e))
  in
  let cursor_words = words () -. w0 in
  put "trace.cursor_records_per_s" (float_of_int count /. cursor_s);
  put "trace.cursor_words_per_record" (cursor_words /. float_of_int count);
  (* trace: text adapter, no engine *)
  let text = Filename.concat dir "layer.txt" in
  ignore (write_text text records);
  let lines, adapter_s =
    span ~request "trace.adapter_drain" (fun _ ->
        let ic = open_in_bin text in
        let a = Adapter.of_channel ~format:Adapter.Text ~file:text ic in
        let rec drain () =
          match Adapter.next_result a with
          | Ok (Some _) -> drain ()
          | Ok None -> ()
          | Error e -> fail "%s" (Adapter.error_to_string e)
        in
        drain ();
        close_in ic;
        (Adapter.stats a).lines)
  in
  put "trace.adapter_lines_per_s" (float_of_int lines /. adapter_s);
  (* core: engine on the decoded array, pull engine, metrics *)
  let w0 = words () in
  let outcome, engine_s =
    span ~request "core.simulate_trace" (fun _ ->
        Resim.simulate_trace ~config:Config.reference ~instrument:spec_auto
          decoded)
  in
  let engine_words = words () -. w0 in
  let c = float_of_int (committed outcome) in
  put "core.engine_mips" (c /. engine_s /. 1e6);
  put "core.engine_words_per_record" (engine_words /. n);
  let pull, pull_s =
    span ~request "core.simulate_pull" (fun _ ->
        let s = Tstream.of_records decoded in
        Resim.simulate_pull_robust ~config:Config.reference
          ~instrument:spec_auto (fun () -> Tstream.next s))
  in
  (match pull with
  | Ok r when Stats.to_json r.outcome.stats = Stats.to_json outcome.stats -> ()
  | Ok _ -> fail "pull engine disagrees with the array engine"
  | Error f -> fail "%s" (Resim.failure_to_string f));
  put "core.pull_engine_mips" (c /. pull_s /. 1e6);
  let json_ms =
    List.init 50 (fun _ ->
        snd (span ~request "core.stats_json" (fun _ -> Stats.to_json outcome.stats))
        *. 1000.)
  in
  put "core.stats_json_ms" (median json_ms);
  (* spec + sweep: the quick grid, serial then pooled *)
  let grid = quick_grid () in
  let solo =
    List.fold_left (fun acc job -> acc +. sweep_job ~request:"sweep.solo" job)
      0. grid
  in
  let installed = Atomic.make 0 in
  let prof = Resim_obs.Prof.create () in
  let report, pool_s =
    span ~request:"sweep.pool" "sweep.run" (fun _ ->
        Sweep.run ~prof ~jobs
          ~instrument:(fun e ->
            if Spec.install ~mode:Spec.Auto e then Atomic.incr installed)
          grid)
  in
  let ngrid = List.length grid in
  if List.length (Sweep.completed report) <> ngrid then
    fail "sweep grid: %d of %d jobs completed"
      (List.length (Sweep.completed report)) ngrid;
  put "spec.specialized_ratio"
    (float_of_int (Atomic.get installed) /. float_of_int ngrid);
  put "sweep.solo_job_s" solo;
  put "sweep.pool_wall_s" pool_s;
  put "sweep.parallel_efficiency" (solo /. (pool_s *. float_of_int jobs));
  (* Job-run time on the worker domains (generation + engine of every
     job), what the sweep request's wall must account for. *)
  let pool_busy_s =
    List.fold_left
      (fun acc (s : Resim_obs.Prof.section) ->
        if s.name = "pool/run" then acc +. s.seconds else acc)
      0. (Resim_obs.Prof.sections prof)
  in
  (* the workload's own request replica: reconciliation + overhead *)
  let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs in
  let per_input, unit =
    match workload with
    | "replay-file" ->
        let f p = replay_file ~request:p p in
        (f, fun () -> f (List.hd inputs))
    | "replay-stream" ->
        let f p = replay_stream ~request:p p in
        (f, fun () -> f (List.hd inputs))
    | "served" ->
        (* one served job is too short to compare: use them all *)
        let f input =
          let path, config = served_input input in
          replay_stream ~served:true ~config ~request:input path
        in
        (f, fun () -> sum f inputs)
    | "sweep" ->
        (* sweep passes no inputs; three grid jobs make the unit *)
        let first = List.filteri (fun i _ -> i < 3) grid in
        (Fun.const 0., fun () -> sum (sweep_job ~request:"overhead") first)
    | w -> fail "unknown workload %s" w
  in
  let replica_s = List.map (fun p -> (p, per_input p)) inputs in
  put "bench.trace_overhead_ratio" (overhead unit);
  write_spans spans_out (List.rev !recorded);
  let self =
    List.fold_left
      (fun acc (s, t) ->
        let prev = Option.value ~default:0. (List.assoc_opt s.name acc) in
        (s.name, prev +. t) :: List.remove_assoc s.name acc)
      [] (self_times !recorded)
  in
  print_endline
    (json_obj
       [ ("metrics", json_obj (List.rev !metrics));
         ("pool_busy_s", num pool_busy_s);
         ( "replica_s",
           json_obj (List.map (fun (p, t) -> (p, num t)) replica_s) );
         ("self_s", json_obj (List.map (fun (k, t) -> (k, num t)) self)) ])

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; kernel; scale; out ] -> cmd_gen kernel scale out
  | [ "text"; kernel; scale; out ] -> cmd_text kernel scale out
  | [ "serve-load"; socket; plan; seconds; out ] ->
      cmd_serve_load socket plan seconds out None
  | [ "serve-load"; socket; plan; seconds; out; spans ] ->
      cmd_serve_load socket plan seconds out (Some spans)
  | "layers" :: workload :: dir :: jobs :: spans :: inputs ->
      cmd_layers workload dir jobs spans inputs
  | _ ->
      prerr_endline
        "usage: perfbench (gen|text) KERNEL SCALE OUT\n\
        \       perfbench serve-load SOCKET PLAN SECONDS OUT [SPANS]\n\
        \       perfbench layers WORKLOAD DIR JOBS SPANS [INPUT...]";
      exit 2
