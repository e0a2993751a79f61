(* resimd: wire protocol, admission, supervision, cache, exit codes
   (DESIGN.md §16).

   The protocol properties are pure qcheck round-trips. The server
   tests run a real daemon — in-process (a domain running
   [Server.run], drained by signalling ourselves) for the typed
   client paths, and as a subprocess of the installed CLI for the
   table-driven exit-code rows. *)

open Alcotest

module Protocol = Resim_serve.Protocol
module Client = Resim_serve.Client
module Server = Resim_serve.Server
module Load = Resim_serve.Load
module Pool = Resim_sweep.Pool
module Checkpoint = Resim_core.Checkpoint
module Resim = Resim_core.Resim
module Config = Resim_core.Config
module Json = Resim_core.Json

(* --- generators ----------------------------------------------------- *)

let gen_name =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 1 12)
         (map (String.make 1)
            (oneof [ char_range 'a' 'z'; char_range '0' '9'; return '-' ]))))

let gen_text =
  QCheck.Gen.(string_size ~gen:printable (int_range 0 40))

(* %.6f-encoded floats: pick milli-precision values so the wire
   round-trip is exact. *)
let gen_timeout = QCheck.Gen.(map (fun n -> float_of_int n /. 1000.) (int_range 1 100_000))

let gen_opt g = QCheck.Gen.(oneof [ return None; map Option.some g ])

let gen_config_spec =
  QCheck.Gen.(
    map
      (fun (base, width, rob, lsq, organization, scheduler) ->
        { Protocol.base; width; rob; lsq; organization; scheduler })
      (tup6
         (oneofl [ "reference"; "fast"; "weird" ])
         (gen_opt (int_range 1 8))
         (gen_opt (int_range 1 512))
         (gen_opt (int_range 1 128))
         (gen_opt (oneofl [ "simple"; "improved"; "optimized" ]))
         (gen_opt (oneofl [ "scan"; "event" ]))))

let gen_sim_spec =
  QCheck.Gen.(
    map
      (fun (kernel, scale, trace, config, max_cycles, timeout, sample) ->
        { Protocol.kernel; scale; trace; config; max_cycles; timeout; sample })
      (tup7 gen_name
         (gen_opt (int_range 1 100_000))
         (gen_opt gen_text) gen_config_spec
         (gen_opt (map Int64.of_int (int_range 1 1_000_000)))
         (gen_opt gen_timeout) (gen_opt gen_text)))

let gen_body =
  QCheck.Gen.(
    oneof
      [ map (fun spec -> Protocol.Simulate spec) gen_sim_spec;
        map
          (fun (kernels, widths, config, max_cycles, timeout, sample) ->
            Protocol.Sweep_grid
              { kernels; widths; config; max_cycles; timeout; sample })
          (tup6
             (list_size (int_range 1 4) gen_name)
             (list_size (int_range 1 4) (int_range 1 8))
             gen_config_spec
             (gen_opt (map Int64.of_int (int_range 1 1_000_000)))
             (gen_opt gen_timeout) (gen_opt gen_text));
        map
          (fun (path, max_run) -> Protocol.Lint { path; max_run })
          (tup2 gen_text (gen_opt (int_range 1 10_000)));
        return Protocol.Status;
        return Protocol.Crash_worker ])

let gen_request =
  QCheck.Gen.(
    map (fun (client, body) -> { Protocol.client; body })
      (tup2 gen_name gen_body))

let gen_rejection =
  QCheck.Gen.(
    oneof
      [ return Protocol.Over_quota;
        return Protocol.Queue_full;
        return Protocol.Shed_lint;
        return Protocol.Shed_sweep;
        return Protocol.Draining;
        map (fun detail -> Protocol.Bad_request detail) gen_text ])

let gen_done_payload =
  QCheck.Gen.(
    map
      (fun (outcome, exit_code, cached, attempts, detail, metrics, checkpoint) ->
        { Protocol.outcome; exit_code; cached; attempts; detail; metrics;
          checkpoint })
      (tup7
         (oneofl
            [ "ok"; "truncated"; "fault"; "deadlock"; "invalid-config";
              "crash"; "timed-out"; "lint-clean"; "lint-errors" ])
         (int_range 0 5) bool (int_range 1 9) (gen_opt gen_text)
         (gen_opt gen_text) (gen_opt gen_text)))

let gen_event =
  QCheck.Gen.(
    oneof
      [ map (fun job_id -> Protocol.Accepted { job_id }) (int_range 1 10_000);
        map (fun r -> Protocol.Rejected r) gen_rejection;
        map
          (fun (completed, total, label) ->
            Protocol.Progress { completed; total; label })
          (tup3 (int_range 0 100) (int_range 1 100) gen_text);
        map (fun p -> Protocol.Done p) gen_done_payload;
        map
          (fun (counters, queue, running, workers, draining) ->
            Protocol.Status_report { counters; queue; running; workers; draining })
          (tup5
             (list_size (int_range 0 5) (tup2 gen_name (int_range 0 1000)))
             (int_range 0 100) (int_range 0 16) (int_range 1 16) bool);
        map
          (fun (code, detail) -> Protocol.Protocol_error { code; detail })
          (tup2 gen_name gen_text) ])

(* --- protocol properties -------------------------------------------- *)

let property_request_round_trip =
  QCheck.Test.make ~count:500 ~name:"wire requests round-trip"
    (QCheck.make gen_request) (fun request ->
      Protocol.decode_request (Protocol.encode_request request) = Ok request)

let property_event_round_trip =
  QCheck.Test.make ~count:500 ~name:"wire events round-trip"
    (QCheck.make gen_event) (fun event ->
      Protocol.decode_event (Protocol.encode_event event) = Ok event)

let property_frame_round_trip =
  QCheck.Test.make ~count:200 ~name:"frame streams reassemble"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 8) (QCheck.make gen_text))
    (fun payloads ->
      let stream = String.concat "" (List.map Protocol.frame payloads) in
      let rec collect offset acc =
        match Protocol.next_frame stream ~offset with
        | Ok (Some (payload, next)) -> collect next (payload :: acc)
        | Ok None -> Protocol.finish stream ~offset = Ok () && List.rev acc = payloads
        | Error _ -> false
      in
      collect 0 [])

let test_frame_errors () =
  (* Truncated: a frame promising more bytes than the stream holds is
     incomplete (wait for more), and EOF there is RSM-S002. *)
  let framed = Protocol.frame "{\"v\":1}" in
  let truncated = String.sub framed 0 (String.length framed - 3) in
  (match Protocol.next_frame truncated ~offset:0 with
  | Ok None -> ()
  | _ -> fail "truncated frame should be incomplete, not an error");
  (match Protocol.finish truncated ~offset:0 with
  | Error { code = "RSM-S002"; _ } -> ()
  | _ -> fail "EOF mid-frame should be RSM-S002");
  (* Oversized: a length prefix beyond max_frame is RSM-S001. *)
  let oversized = "\xff\xff\xff\xff" ^ "junk" in
  (match Protocol.next_frame oversized ~offset:0 with
  | Error { code = "RSM-S001"; _ } -> ()
  | _ -> fail "oversized frame should be RSM-S001");
  (* Garbage: bytes that are not JSON are RSM-S003. *)
  (match Protocol.decode_request "not json at all" with
  | Error { code = "RSM-S003"; _ } -> ()
  | _ -> fail "non-JSON payload should be RSM-S003");
  (* Shape: valid JSON that is not a request is RSM-S004. *)
  (match Protocol.decode_request "{\"v\":1,\"kind\":\"nonsense\"}" with
  | Error { code = "RSM-S004"; _ } -> ()
  | _ -> fail "mis-shaped request should be RSM-S004");
  match Protocol.decode_event "[1,2,3]" with
  | Error { code = "RSM-S004"; _ } -> ()
  | _ -> fail "mis-shaped event should be RSM-S004"

let test_exit_code_mapping () =
  check int "done carries its own code" 2
    (Client.exit_code_of_terminal
       (Protocol.Done
          { Protocol.outcome = "invalid-config"; exit_code = 2; cached = false;
            attempts = 1; detail = None; metrics = None; checkpoint = None }));
  check int "admission rejection is 5" 5
    (Client.exit_code_of_terminal (Protocol.Rejected Protocol.Over_quota));
  check int "bad request is 2" 2
    (Client.exit_code_of_terminal
       (Protocol.Rejected (Protocol.Bad_request "no")));
  check int "protocol error is 3" 3
    (Client.exit_code_of_terminal
       (Protocol.Protocol_error { code = "RSM-S003"; detail = "" }));
  check int "unreachable server is 4"
    4
    (Client.exit_code_of_error (Client.Refused "ECONNREFUSED"))

(* --- in-process server ---------------------------------------------- *)

let fresh_socket () =
  let path = Filename.temp_file "resimd" ".sock" in
  Sys.remove path;
  path

let wait_ready socket =
  let rec go tries =
    if tries > 200 then fail "server did not come up"
    else
      match
        Client.converse ~socket { Protocol.client = "probe"; body = Protocol.Status }
      with
      | Ok _ -> ()
      | Error _ ->
          Unix.sleepf 0.05;
          go (tries + 1)
  in
  go 0

(* Run [f] against a live in-process server, then drain it with the
   same signal a real deployment would use. *)
let with_server config f =
  let handle = Domain.spawn (fun () -> Server.run config) in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      match Domain.join handle with
      | Ok () -> ()
      | Error message -> fail ("server exited with: " ^ message))
    (fun () ->
      wait_ready config.Server.socket_path;
      f config.Server.socket_path)

let submit_ok socket request =
  match Client.converse ~socket request with
  | Ok event -> event
  | Error error -> fail (Client.error_to_string error)

let simulate_request ?(client = "test") ?(scale = 200) kernel =
  { Protocol.client;
    body =
      Protocol.Simulate
        { Protocol.kernel;
          scale = Some scale;
          trace = None;
          config = Protocol.reference_spec;
          max_cycles = None;
          timeout = None;
          sample = None } }

(* A sampled trace request streams its file through the worker's
   Source; it must answer exactly what sampling the whole decoded file
   in memory answers — the same statistics and sampled report. *)
let test_sampled_trace_request () =
  let records =
    Resim_tracegen.Generator.records
      (Resim_workloads.Workload.program_of
         (Resim_workloads.Workload.find "gzip")
         ~scale:400 ())
  in
  let path = Filename.temp_file "resimd_sampled" ".rtr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Resim_trace.Codec.write_file path records;
      let sample = "100:900:3" in
      let payload =
        Resim_serve.Exec.run ~retries:0 ~backoff:0.0 ~max_backoff:0.0
          ~test_hooks:false
          (Protocol.Simulate
             { Protocol.kernel = "gzip";
               scale = None;
               trace = Some path;
               config = Protocol.reference_spec;
               max_cycles = None;
               timeout = None;
               sample = Some sample })
      in
      check string "sampled trace request outcome" "ok"
        payload.Protocol.outcome;
      let spec =
        match Resim_sample.Sample.spec_of_string sample with
        | Ok spec -> spec
        | Error message -> fail message
      in
      let decoded, _format = Resim_trace.Codec.read_file path in
      match
        Resim_sample.Sample.run ~spec (Resim_core.Source.of_array decoded)
      with
      | Error failure -> fail (Resim.failure_to_string failure)
      | Ok (robust, report) ->
          check bool "several intervals measured" true
            (List.length report.Resim_sample.Sample.intervals >= 2);
          check (option string) "same metrics as the whole-file run"
            (Some
               (Resim_sample.Sample.splice_metrics
                  ~stats_json:
                    (Resim_core.Stats.to_json robust.Resim.outcome.stats)
                  report))
            payload.Protocol.metrics)

let test_crash_recovery () =
  let socket = fresh_socket () in
  let config =
    { (Server.default_config ~socket_path:socket) with
      Server.workers = 1;
      retries = 2;
      backoff = 0.01;
      test_hooks = true }
  in
  with_server config (fun socket ->
      (* Kill the only worker; the job must come back [crash] after
         the retry budget (1 first run + 2 retries), not hang. *)
      (match
         submit_ok socket
           { Protocol.client = "test"; body = Protocol.Crash_worker }
       with
      | Protocol.Done payload ->
          check string "crash outcome" "crash" payload.Protocol.outcome;
          check int "crash exit code" 3 payload.Protocol.exit_code;
          check int "attempts = 1 + retries" 3 payload.Protocol.attempts
      | _ -> fail "crash-worker should end in a done event");
      (* The supervisor must have respawned a worker: the queue still
         drains real work afterwards. *)
      (match submit_ok socket (simulate_request "gzip") with
      | Protocol.Done payload ->
          check string "post-crash simulate" "ok" payload.Protocol.outcome
      | _ -> fail "post-crash simulate should complete");
      match
        submit_ok socket { Protocol.client = "test"; body = Protocol.Status }
      with
      | Protocol.Status_report { counters; _ } ->
          let count name = List.assoc name counters in
          check bool "restarts recorded" true (count "worker_restarts" >= 3);
          check bool "retries recorded" true (count "retried" >= 2)
      | _ -> fail "status should report counters")

let test_quota_and_cache () =
  let socket = fresh_socket () in
  let cache_dir = Filename.temp_file "resimd" ".cache" in
  Sys.remove cache_dir;
  let config =
    { (Server.default_config ~socket_path:socket) with
      Server.workers = 1;
      cache_dir = Some cache_dir }
  in
  with_server config (fun socket ->
      (* Identical resubmission is a content-addressed cache hit. *)
      (match submit_ok socket (simulate_request "gzip") with
      | Protocol.Done payload ->
          check bool "first run not cached" false payload.Protocol.cached
      | _ -> fail "first simulate should complete");
      match submit_ok socket (simulate_request "gzip") with
      | Protocol.Done payload ->
          check bool "resubmission is a cache hit" true payload.Protocol.cached;
          check string "cached outcome" "ok" payload.Protocol.outcome;
          check bool "cached metrics preserved" true
            (payload.Protocol.metrics <> None)
      | _ -> fail "cached simulate should complete");
  let entries = Sys.readdir cache_dir in
  check bool "cache entry persisted" true (Array.length entries > 0);
  Array.iter (fun f -> Sys.remove (Filename.concat cache_dir f)) entries;
  Unix.rmdir cache_dir

let test_admission_rejections () =
  let socket = fresh_socket () in
  let config =
    { (Server.default_config ~socket_path:socket) with
      Server.workers = 1;
      max_per_client = 0 }
  in
  with_server config (fun socket ->
      match Client.converse ~socket (simulate_request "gzip") with
      | Ok (Protocol.Rejected Protocol.Over_quota as terminal) ->
          check int "quota rejection exit code" 5
            (Client.exit_code_of_terminal terminal)
      | Ok _ -> fail "zero quota should reject with over-quota"
      | Error error -> fail (Client.error_to_string error));
  (* And with the daemon gone, the same request is a typed refusal. *)
  match Client.converse ~socket (simulate_request "gzip") with
  | Error (Client.Refused _ as error) ->
      check int "refused exit code" 4 (Client.exit_code_of_error error)
  | Ok _ -> fail "drained server should refuse connections"
  | Error other -> fail (Client.error_to_string other)

(* --- pool shutdown (satellite 1) ------------------------------------ *)

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~jobs:2 () in
  let task = Pool.submit pool (fun () -> 21 * 2) in
  check int "task ran" 42 (Pool.await task);
  Pool.shutdown pool;
  (* Second shutdown: no-op, returns immediately, no exception. *)
  Pool.shutdown pool;
  (* Submit after shutdown: typed error, never a hang. *)
  match Pool.submit pool (fun () -> 0) with
  | exception Invalid_argument _ -> ()
  | _task -> fail "submit after shutdown should raise Invalid_argument"

let test_pool_shutdown_concurrent () =
  let pool = Pool.create ~jobs:2 () in
  let barrier = Atomic.make 0 in
  let racer () =
    Atomic.incr barrier;
    while Atomic.get barrier < 2 do Domain.cpu_relax () done;
    Pool.shutdown pool
  in
  let a = Domain.spawn racer and b = Domain.spawn racer in
  Domain.join a;
  Domain.join b;
  match Pool.submit pool (fun () -> 0) with
  | exception Invalid_argument _ -> ()
  | _task -> fail "pool should be down after concurrent shutdowns"

(* --- checkpoint identity (satellite 2) ------------------------------ *)

let test_engine_identity () =
  let reference = Resim.engine_identity Config.reference in
  check string "identity is deterministic" reference
    (Resim.engine_identity Config.reference);
  let narrow = { Config.reference with Config.width = 2 } in
  check bool "identity covers the configuration" true
    (reference <> Resim.engine_identity narrow);
  check bool "identity pins the build version" true
    (String.length reference > String.length Resim.version
    && String.sub reference 0 (String.length Resim.version) = Resim.version)

let test_checkpoint_identity_round_trip () =
  let stamped =
    Checkpoint.with_engine
      (Resim.engine_identity Config.reference)
      (Checkpoint.make ~cycle:64L ~cursor:7 ~counters:[ ("committed", 9L) ] ())
  in
  match Checkpoint.of_string (Checkpoint.to_string stamped) with
  | Error error -> fail (Checkpoint.error_to_string error)
  | Ok reread -> (
      check bool "engine line survives the round-trip" true
        (reread.Checkpoint.engine = stamped.Checkpoint.engine);
      (match Checkpoint.verify_engine
               ~expected:(Resim.engine_identity Config.reference) reread
       with
      | Ok () -> ()
      | Error _ -> fail "matching identity should verify");
      match
        Checkpoint.verify_engine
          ~expected:
            (Resim.engine_identity
               { Config.reference with Config.width = 2 })
          reread
      with
      | Error { Checkpoint.code = "RSM-K007"; _ } -> ()
      | Error _ -> fail "mismatch should be RSM-K007"
      | Ok () -> fail "foreign identity should not verify")

let test_checkpoint_legacy_unstamped () =
  (* Pre-identity handles carry no engine line and must keep loading:
     replay verification remains their guard. *)
  let legacy = Checkpoint.make ~cycle:1L ~cursor:0 ~counters:[] () in
  match
    Checkpoint.verify_engine
      ~expected:(Resim.engine_identity Config.reference) legacy
  with
  | Ok () -> ()
  | Error _ -> fail "unstamped checkpoints must stay loadable"

(* --- loadgen JSON ---------------------------------------------------- *)

let test_load_json_parses () =
  let tiers =
    [ { Load.clients = 1; jobs = 8; completed = 8; errors = 0;
        duration = 1.25; jobs_per_sec = 6.4; p50_ms = 150.; p99_ms = 310. } ]
  in
  check bool "BENCH_service.json parses" true
    (Json.validate (Load.to_json tiers) = Ok ())

(* --- table-driven CLI exit codes (satellite 6) ----------------------- *)

let cli =
  Filename.concat
    (Filename.concat
       (Filename.dirname (Filename.dirname Sys.executable_name))
       "bin")
    "resim_cli.exe"

let run_cli args =
  Sys.command
    (Printf.sprintf "%s %s > /dev/null 2> /dev/null" (Filename.quote cli) args)

let test_cli_exit_codes () =
  check bool ("CLI binary present at " ^ cli) true (Sys.file_exists cli);
  let socket = fresh_socket () in
  let quoted = Filename.quote socket in
  let daemon =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--workers"; "1"; "--retries";
         "0"; "--test-hooks" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill daemon Sys.sigterm;
      ignore (Unix.waitpid [] daemon))
    (fun () ->
      wait_ready socket;
      let cases =
        [ ("status", Printf.sprintf "submit --socket %s --status" quoted, 0);
          ( "clean simulate over the wire",
            Printf.sprintf "submit --socket %s -k gzip -s 200 --quiet" quoted,
            0 );
          ( "invalid config over the wire",
            Printf.sprintf "submit --socket %s -k gzip --base nope" quoted,
            2 );
          ( "server-side fault (crashed worker, no retries)",
            Printf.sprintf "submit --socket %s --crash-worker" quoted,
            3 );
          ( "garbage frame gets a typed error",
            Printf.sprintf "submit --socket %s --send-garbage" quoted,
            3 );
          ( "connection refused",
            "submit --socket /nonexistent/resimd.sock --status",
            4 ) ]
      in
      List.iter
        (fun (label, args, expected) ->
          check int (Printf.sprintf "%s (`resim %s`)" label args) expected
            (run_cli args))
        cases)

let suite =
  [ ("serve:protocol",
     [ QCheck_alcotest.to_alcotest property_request_round_trip;
       QCheck_alcotest.to_alcotest property_event_round_trip;
       QCheck_alcotest.to_alcotest property_frame_round_trip;
       Alcotest.test_case "frame error taxonomy" `Quick test_frame_errors;
       Alcotest.test_case "exit-code mapping" `Quick test_exit_code_mapping ]);
    ("serve:exec",
     [ Alcotest.test_case "sampled trace request streams like the whole file"
         `Quick test_sampled_trace_request ]);
    ("serve:server",
     [ Alcotest.test_case "crashed worker: retry budget then crash outcome"
         `Slow test_crash_recovery;
       Alcotest.test_case "result cache hits on resubmission" `Slow
         test_quota_and_cache;
       Alcotest.test_case "quota rejection and refused connection" `Slow
         test_admission_rejections ]);
    ("serve:pool",
     [ Alcotest.test_case "shutdown is idempotent; submit after is typed"
         `Quick test_pool_shutdown_idempotent;
       Alcotest.test_case "concurrent shutdowns race safely" `Quick
         test_pool_shutdown_concurrent ]);
    ("serve:checkpoint-identity",
     [ Alcotest.test_case "engine identity is config-sensitive" `Quick
         test_engine_identity;
       Alcotest.test_case "stamped handles round-trip and verify" `Quick
         test_checkpoint_identity_round_trip;
       Alcotest.test_case "legacy unstamped handles stay loadable" `Quick
         test_checkpoint_legacy_unstamped ]);
    ("serve:loadgen",
     [ Alcotest.test_case "tier JSON parses" `Quick test_load_json_parses ]);
    ("serve:cli",
     [ Alcotest.test_case "serve/submit exit-code table" `Slow
         test_cli_exit_codes ]) ]
