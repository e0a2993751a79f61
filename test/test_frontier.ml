(* Tests for the trace frontier: foreign-format adapters (text and
   RISC-V profiles), constant-memory streaming cursors and encoders,
   sharded trace sets, and the differential guarantee that the streamed
   engine path is stats-identical to the in-memory path on every
   workload kernel under both schedulers. *)

open Resim_core
module Record = Resim_trace.Record
module Codec = Resim_trace.Codec
module Adapter = Resim_trace.Adapter
module Stream = Resim_trace.Stream
module Fault = Resim_trace.Fault
module Fault_inject = Resim_trace.Fault_inject
module Trace_check = Resim_check.Check.Trace
module Synthetic = Resim_tracegen.Synthetic
module System = Resim_multicore.System

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let i64 = Alcotest.int64

let with_tmp ~suffix f =
  let path = Filename.temp_file "resim_frontier" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_bytes path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let stats_dump stats = Format.asprintf "%a" Stats.pp stats
let with_scheduler scheduler (config : Config.t) = { config with scheduler }

(* ------------------------------------------------------------------- *)
(* Differential: streamed pull path vs in-memory array path, every
   workload kernel (plus a synthetic eighth), both schedulers.          *)

let kernel_records =
  lazy
    (let kernels =
       Resim_workloads.Workload.all @ Resim_workloads.Workload.extended
     in
     let from_kernels =
       List.map
         (fun kernel ->
           let name = Resim_workloads.Workload.name_of kernel in
           let program = Resim_workloads.Workload.program_of kernel () in
           (name, Resim_tracegen.Generator.records program))
         kernels
     in
     let synthetic =
       ( "synthetic",
         Synthetic.generate ~seed:7
           (Synthetic.balanced ~name:"eighth" ~instructions:4000) )
     in
     from_kernels @ [ synthetic ])

let robust_exn label = function
  | Ok (r : Resim.robust) -> r
  | Error failure ->
      Alcotest.failf "%s: %s" label (Resim.failure_to_string failure)

let open_path_exn label path =
  match Stream.open_path ~chunk:512 path with
  | Ok stream -> stream
  | Error e ->
      Alcotest.failf "%s: open_path: %s" label (Codec.error_to_string e)

let pulled ?max_cycles ?resume label ~config path =
  let stream = open_path_exn label path in
  Fun.protect
    ~finally:(fun () -> Stream.close stream)
    (fun () ->
      robust_exn label
        (Resim.run ~config ?max_cycles ?resume
           (Source.of_pull (fun () -> Stream.next stream))))

let in_memory ?max_cycles ?resume label ~config records =
  robust_exn label
    (Resim.run ~config ?max_cycles ?resume (Source.of_array records))

let write_streamed ~format path records =
  let oc = open_out_bin path in
  let encoder = Codec.Encoder.to_channel ~format oc in
  Array.iter (Codec.Encoder.push encoder) records;
  Codec.Encoder.close encoder;
  close_out oc

(* The pull run must report what the array run reports: the same
   statistics, trace summary and Fixed-format bits/instruction. *)
let check_same_outcome label (reference : Resim.robust) (run : Resim.robust) =
  check i64
    (label ^ ": major cycles")
    (Stats.get Stats.major_cycles reference.outcome.stats)
    (Stats.get Stats.major_cycles run.outcome.stats);
  check string
    (label ^ ": full stats dump")
    (stats_dump reference.outcome.stats)
    (stats_dump run.outcome.stats);
  check bool (label ^ ": trace summary") true
    (reference.outcome.trace_summary = run.outcome.trace_summary);
  check (Alcotest.float 0.0)
    (label ^ ": bits/instruction")
    reference.outcome.bits_per_instruction run.outcome.bits_per_instruction

let format_name = function Codec.Fixed -> "fixed" | Codec.Compact -> "compact"

let with_compact_shards records f =
  let stem = Filename.temp_file "resim_frontier_diff" "" in
  Sys.remove stem;
  let shards =
    Codec.Shard.write ~format:Codec.Compact ~records_per_shard:1000 ~stem
      records
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove shards)
    (fun () -> f stem shards)

(* Array reference: Resim.run on the decoded trace. Pull runs:
   Stream.open_path over a counted Compact file on both schedulers and,
   on the reference scheduler, over a counted Fixed file, streamed-header
   files in both formats and (first kernel only) a shard set. Truncated
   and resumed runs are inputs too: a run cut at half its cycles counts
   the records it consumed on either path, and resuming its checkpoint
   drains to the uninterrupted outcome. *)
let test_streamed_matches_in_memory () =
  List.iteri
    (fun index (name, records) ->
      with_tmp ~suffix:".rtr" (fun path ->
          Codec.write_file ~format:Codec.Fixed path records;
          let decoded, _ = Codec.read_file path in
          check bool (name ^ ": decoded = generated") true (decoded = records);
          List.iter
            (fun scheduler ->
              let config = with_scheduler scheduler Config.reference in
              let label = name ^ "/" ^ Config.scheduler_name scheduler in
              let reference = in_memory label ~config decoded in
              let bits = reference.outcome.bits_per_instruction in
              check bool (label ^ ": fixed bits/instruction") true
                (bits > 0.0 && bits = Codec.bits_per_instruction decoded);
              Codec.write_file ~format:Codec.Compact path records;
              check_same_outcome (label ^ "/compact") reference
                (pulled label ~config path);
              let max_cycles =
                Int64.div
                  (Stats.get Stats.major_cycles reference.outcome.stats)
                  2L
              in
              let cut = in_memory label ~config ~max_cycles decoded in
              check bool (label ^ ": truncated") true
                (cut.stop = Engine.Cycle_budget);
              check_same_outcome (label ^ "/truncated") cut
                (pulled label ~config ~max_cycles path);
              check int (label ^ ": truncated summary counts consumed records")
                (Option.get cut.resume).Checkpoint.cursor
                cut.outcome.trace_summary.total;
              let resume = Option.get cut.resume in
              check_same_outcome (label ^ "/resumed") reference
                (in_memory label ~config ~resume decoded);
              check_same_outcome (label ^ "/resumed-compact") reference
                (pulled label ~config ~resume path);
              if scheduler = Config.reference.scheduler then begin
                Codec.write_file ~format:Codec.Fixed path records;
                check_same_outcome (label ^ "/fixed") reference
                  (pulled label ~config path);
                List.iter
                  (fun format ->
                    write_streamed ~format path records;
                    check_same_outcome
                      (label ^ "/streamed-" ^ format_name format)
                      reference (pulled label ~config path))
                  [ Codec.Fixed; Codec.Compact ];
                if index = 0 then
                  with_compact_shards records (fun stem shards ->
                      check bool (label ^ ": several shards") true
                        (List.length shards > 1);
                      check_same_outcome (label ^ "/shards") reference
                        (pulled label ~config stem))
              end)
            [ Config.Scan; Config.Event ]))
    (Lazy.force kernel_records)

(* ------------------------------------------------------------------- *)
(* Chunked cursors: absolute offsets and record-for-record agreement
   with the in-memory cursor on every corruption class.                 *)

(* Records until the first structured error; errors are sticky, so the
   stream stops there. *)
let drain_cursor cursor =
  let rec loop acc =
    if not (Codec.Cursor.has_next cursor) then (List.rev acc, None)
    else
      match Codec.Cursor.next_result cursor with
      | Ok record -> loop (record :: acc)
      | Error e -> (List.rev acc, Some e)
  in
  loop []

let in_memory_view data =
  match Codec.Cursor.of_string_result data with
  | Error e -> ([], Some e)
  | Ok cursor -> drain_cursor cursor

let chunked_view ~chunk data =
  with_tmp ~suffix:".rtr" (fun path ->
      write_bytes path data;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match Codec.Cursor.of_channel_result ~chunk ic with
          | Error e -> ([], Some e)
          | Ok cursor -> drain_cursor cursor))

let assert_views_agree ~label ~chunk data =
  let mem_records, mem_error = in_memory_view data in
  let chk_records, chk_error = chunked_view ~chunk data in
  check int (label ^ ": record count") (List.length mem_records)
    (List.length chk_records);
  check bool (label ^ ": records agree") true (mem_records = chk_records);
  match (mem_error, chk_error) with
  | None, None -> ()
  | Some m, Some c ->
      check string (label ^ ": error code") m.Codec.error_code c.Codec.error_code;
      (* The chunked cursor must report the same ABSOLUTE file offset
         the in-memory cursor sees, not an offset within its refill
         buffer. *)
      check int (label ^ ": absolute byte offset") m.byte_offset c.byte_offset
  | Some m, None ->
      Alcotest.failf "%s: chunked cursor missed %s at %d" label m.error_code
        m.byte_offset
  | None, Some c ->
      Alcotest.failf "%s: chunked cursor invented %s at %d" label c.error_code
        c.byte_offset

let corruption_records =
  lazy
    (Synthetic.generate ~seed:11
       (Synthetic.balanced ~name:"corruptee" ~instructions:600))

let test_chunked_agrees_on_every_corruption_class () =
  let records = Lazy.force corruption_records in
  List.iter
    (fun fault ->
      List.iter
        (fun format ->
          let data = Fault_inject.apply ~seed:3 ~format fault records in
          let label =
            Printf.sprintf "%s/%s" (Fault_inject.name fault)
              (match format with Codec.Fixed -> "fixed" | Codec.Compact -> "compact")
          in
          (* chunk far smaller than the payload, so any mid-stream error
             sits many refills past the first buffer *)
          assert_views_agree ~label ~chunk:17 data)
        [ Codec.Fixed; Codec.Compact ])
    Fault_inject.all

let test_truncation_at_chunk_boundaries () =
  let records = Lazy.force corruption_records in
  let data = Codec.encode records in
  let chunk = 64 in
  List.iter
    (fun cut ->
      if cut > 0 && cut < String.length data then
        let truncated = String.sub data 0 cut in
        assert_views_agree
          ~label:(Printf.sprintf "cut at %d" cut)
          ~chunk truncated)
    [ chunk - 1;
      chunk;
      chunk + 1;
      (2 * chunk) - 1;
      2 * chunk;
      (2 * chunk) + 1;
      String.length data - 1 ]

let test_error_offset_is_past_first_chunk () =
  (* Directly pin the absolute-offset property: truncate well past the
     first refill and demand the reported offset land beyond it. *)
  let records = Lazy.force corruption_records in
  let data = Codec.encode records in
  let chunk = 64 in
  let cut = min (String.length data - 1) (7 * chunk) in
  let _, error = chunked_view ~chunk (String.sub data 0 cut) in
  match error with
  | None -> Alcotest.fail "truncated stream decoded cleanly"
  | Some e ->
      check string "truncation code" "RSM-T002" e.Codec.error_code;
      check bool
        (Printf.sprintf "offset %d beyond first chunk %d" e.byte_offset chunk)
        true
        (e.byte_offset > chunk)

(* ------------------------------------------------------------------- *)
(* Streaming encoder: push through a bounded buffer, read back the
   streamed header, decode exactly the pushed records.                  *)

let test_encoder_streamed_roundtrip () =
  let records =
    Synthetic.generate ~seed:23
      (Synthetic.balanced ~name:"encoder" ~instructions:500)
  in
  List.iter
    (fun format ->
      with_tmp ~suffix:".rtr" (fun path ->
          let oc = open_out_bin path in
          let encoder = Codec.Encoder.to_channel ~format ~flush_bytes:32 oc in
          Array.iter (Codec.Encoder.push encoder) records;
          check int "pushed" (Array.length records)
            (Codec.Encoder.pushed encoder);
          Codec.Encoder.close encoder;
          Codec.Encoder.close encoder (* idempotent *);
          close_out oc;
          let cursor =
            match Codec.Cursor.of_string_result (read_bytes path) with
            | Ok cursor -> cursor
            | Error e -> Alcotest.failf "header: %s" (Codec.error_to_string e)
          in
          check bool "streamed header" true (Codec.Cursor.streamed cursor);
          check bool "format preserved" true (Codec.Cursor.format cursor = format);
          let decoded, error = drain_cursor cursor in
          (match error with
          | None -> ()
          | Some e -> Alcotest.failf "decode: %s" (Codec.error_to_string e));
          (* has_next is exact on streamed cursors: end padding never
             reads as one more record *)
          check int "exact record count" (Array.length records)
            (List.length decoded);
          check bool "records round-trip" true
            (Array.to_list records = decoded);
          (* and the pull-stream face agrees *)
          match Stream.open_file ~chunk:96 path with
          | Error e -> Alcotest.failf "open_file: %s" (Codec.error_to_string e)
          | Ok stream ->
              check bool "stream face round-trips" true
                (Stream.to_array stream = records)))
    [ Codec.Fixed; Codec.Compact ]

let test_read_file_missing_is_typed () =
  let path = "/nonexistent/resim-frontier-missing.rtr" in
  (match Codec.read_file_result path with
  | Ok _ -> Alcotest.fail "read_file_result succeeded on a missing file"
  | Error e -> check string "read_file_result code" "RSM-T009" e.Codec.error_code);
  (match Stream.open_file path with
  | Ok _ -> Alcotest.fail "open_file succeeded on a missing file"
  | Error e -> check string "open_file code" "RSM-T009" e.Codec.error_code);
  (* and read_file raises the typed Corrupt, never a raw Sys_error *)
  match Codec.read_file path with
  | _ -> Alcotest.fail "read_file succeeded on a missing file"
  | exception Codec.Corrupt _ -> ()

(* ------------------------------------------------------------------- *)
(* Shards: block-safe splitting, expansion, concatenating stream.       *)

let shard_records =
  (* A kernel trace, so real wrong-path blocks cross naive cut points. *)
  lazy (snd (List.hd (Lazy.force kernel_records)))

let with_shards ~records_per_shard records f =
  let stem = Filename.temp_file "resim_frontier_shard" "" in
  Sys.remove stem;
  let paths = Codec.Shard.write ~records_per_shard ~stem records in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () -> f ~stem paths)

let test_shard_roundtrip_and_lint () =
  let records = Lazy.force shard_records in
  with_shards ~records_per_shard:100 records (fun ~stem paths ->
      check bool "several shards" true (List.length paths > 1);
      (* every shard is self-describing: lints clean alone, and never
         starts inside a wrong-path block *)
      List.iter
        (fun path ->
          check bool
            (path ^ " lints clean")
            true
            (Trace_check.clean (Trace_check.lint_file path));
          let shard, _ = Codec.read_file path in
          if Array.length shard > 0 then
            check bool
              (path ^ " starts untagged")
              false shard.(0).Record.wrong_path)
        paths;
      (* expansion: from the bare stem and from any member *)
      check bool "expand stem" true (Codec.Shard.expand stem = Some paths);
      check bool "expand member" true
        (Codec.Shard.expand (List.nth paths 1) = Some paths);
      (* concatenating stream reproduces the original trace *)
      (match Stream.open_sharded paths with
      | Error e -> Alcotest.failf "open_sharded: %s" (Codec.error_to_string e)
      | Ok stream ->
          check bool "sharded concat round-trips" true
            (Stream.to_array stream = records));
      match Stream.open_path stem with
      | Error e -> Alcotest.failf "open_path: %s" (Codec.error_to_string e)
      | Ok stream ->
          check bool "open_path finds the set" true
            (Stream.to_array stream = records))

let test_shard_empty_trace () =
  with_shards ~records_per_shard:10 [||] (fun ~stem:_ paths ->
      check int "one empty shard" 1 (List.length paths);
      let records, _ = Codec.read_file (List.hd paths) in
      check int "empty" 0 (Array.length records))

(* ------------------------------------------------------------------- *)
(* Multicore: a core fed by a truncated stream reports `Truncated and
   carries the fault; healthy cores still drain.                        *)

let test_multicore_truncated_stream () =
  let records =
    Synthetic.generate ~seed:3
      (Synthetic.balanced ~name:"cores" ~instructions:400)
  in
  let data = Codec.encode records in
  let truncated = String.sub data 0 (String.length data - 3) in
  with_tmp ~suffix:".rtr" (fun path ->
      write_bytes path truncated;
      let stream =
        match Stream.open_file ~chunk:64 path with
        | Ok stream -> stream
        | Error e -> Alcotest.failf "open_file: %s" (Codec.error_to_string e)
      in
      let specs =
        [ { System.name = "healthy";
            source = Source.of_array records;
            config = Config.reference };
          { System.name = "starved";
            source = Source.of_pull (fun () -> Stream.next stream);
            config = Config.reference } ]
      in
      let system = System.create specs in
      check bool "truncated stream is never `Finished" true
        (System.run system = `Truncated);
      match System.results system with
      | [ healthy; starved ] ->
          check bool "healthy core drains" true healthy.System.drained;
          check bool "healthy core has no fault" true
            (healthy.System.fault = None);
          check bool "starved core did not drain" false
            starved.System.drained;
          (match starved.System.fault with
          | None -> Alcotest.fail "starved core carries no fault"
          | Some fault ->
              check string "fault code" "RSM-T002" fault.Fault.code)
      | results ->
          Alcotest.failf "expected 2 core results, got %d"
            (List.length results))

let test_multicore_stream_feed_matches_records_feed () =
  let records =
    Synthetic.generate ~seed:9
      (Synthetic.balanced ~name:"twin" ~instructions:300)
  in
  with_tmp ~suffix:".rtr" (fun path ->
      Codec.write_file path records;
      let stream =
        match Stream.open_file ~chunk:128 path with
        | Ok stream -> stream
        | Error e -> Alcotest.failf "open_file: %s" (Codec.error_to_string e)
      in
      let specs =
        [ { System.name = "array";
            source = Source.of_array records;
            config = Config.reference };
          { System.name = "stream";
            source = Source.of_pull (fun () -> Stream.next stream);
            config = Config.reference } ]
      in
      let system = System.create specs in
      check bool "both drain" true (System.run system = `Finished);
      match System.results system with
      | [ array; stream_result ] ->
          check string "per-core stats identical"
            (stats_dump array.System.stats)
            (stats_dump stream_result.System.stats)
      | _ -> Alcotest.fail "expected 2 core results")

(* ------------------------------------------------------------------- *)
(* Adapters: grammar acceptance, typed RSM-A diagnostics, round-trip
   through the codec, lint-clean synthesis.                             *)

let adapt ?(format = Adapter.Text) source =
  Adapter.adapt_string_result ~format ~file:"test.trc" source

let adapt_exn ?format label source =
  match adapt ?format source with
  | Ok records -> records
  | Error e -> Alcotest.failf "%s: %s" label (Adapter.error_to_string e)

let expect_error ?format label expected_code ?line ?col source =
  match adapt ?format source with
  | Ok _ -> Alcotest.failf "%s: expected %s, got records" label expected_code
  | Error e ->
      check string (label ^ ": code") expected_code e.Adapter.code;
      Option.iter (fun l -> check int (label ^ ": line") l e.Adapter.line) line;
      Option.iter (fun c -> check int (label ^ ": col") c e.Adapter.col) col

let test_text_tolerant_lexing () =
  (* CRLF endings, comments, blank lines, trailing whitespace: all
     accepted; a back-branch makes the trace non-trivial. *)
  let source =
    "# header comment\r\n\
     1000 0 1 2 3\r\n\
     \r\n\
     1004 1 4 1 2   \n\
     1000 2 5 4 -1\t\n"
  in
  let records = adapt_exn "tolerant" source in
  let correct =
    Array.to_list records |> List.filter (fun r -> not r.Record.wrong_path)
  in
  check int "three instructions" 3 (List.length correct);
  (* the 1004 -> 1000 discontinuity is a taken conditional branch *)
  check bool "back edge inferred as branch" true
    (List.exists
       (fun r ->
         match r.Record.payload with
         | Record.Branch { kind = Resim_isa.Opcode.Cond; taken = true; target }
           ->
             (* targets are word indices: pc lsr 2 *)
             target = 0x1000 lsr 2
         | _ -> false)
       correct)

let test_text_not_taken_reclassification () =
  (* A PC that once branched and later falls through must produce a
     NOT-taken conditional, so directions really interleave. *)
  let buffer = Buffer.create 256 in
  for _ = 1 to 3 do
    Buffer.add_string buffer "1000 0 1 2 3\n1004 0 2 1 1\n"
    (* 1004 jumps back: taken branch at 1004 *)
  done;
  Buffer.add_string buffer "1000 0 1 2 3\n1004 0 2 1 1\n1008 0 3 2 1\n";
  let records = adapt_exn "fallthrough" (Buffer.contents buffer) in
  check bool "not-taken conditional emitted" true
    (Array.exists
       (fun r ->
         match r.Record.payload with
         | Record.Branch { kind = Resim_isa.Opcode.Cond; taken = false; _ } ->
             not r.Record.wrong_path
         | _ -> false)
       records)

let test_adapter_rsm_a_catalog () =
  expect_error "empty input" "RSM-A006" "";
  expect_error "only comments" "RSM-A006" "# nothing\n\n# here\n";
  expect_error "field count" "RSM-A001" ~line:1 "1000 0 1 2\n";
  expect_error "not a number" "RSM-A002" ~line:2 ~col:6 "1000 0 1 2 3\n1004 x 1 2 3\n";
  expect_error "op out of domain" "RSM-A003" ~line:1 ~col:6 "1000 9 1 2 3\n";
  expect_error "register out of domain" "RSM-A003" "1000 0 -2 2 3\n";
  expect_error "overlong line" "RSM-A004" ~line:1
    (String.make (Adapter.default_config.max_line_bytes + 16) 'a' ^ "\n");
  (* RISC-V profile *)
  expect_error ~format:Adapter.Riscv "compressed word" "RSM-A005"
    "1000 00000001\n";
  expect_error ~format:Adapter.Riscv "load without mem" "RSM-A001"
    "1000 00052503\n"

let test_adapter_errors_are_sticky () =
  let adapter =
    Adapter.of_string ~format:Adapter.Text ~file:"sticky.trc"
      "1000 0 1 2 3\n1004 0 2 1 1\n1008 9 1 2 3\n"
  in
  (* one line of lookahead: records before the window reaching the bad
     line still come out *)
  check bool "first record ok" true
    (match Adapter.next_result adapter with Ok (Some _) -> true | _ -> false);
  let rec first_error () =
    match Adapter.next_result adapter with
    | Ok (Some _) -> first_error ()
    | Ok None -> Alcotest.fail "malformed line adapted"
    | Error e -> e
  in
  let first = first_error () in
  check string "error names the bad line" "RSM-A003" first.Adapter.code;
  check int "error line" 3 first.Adapter.line;
  (match Adapter.next_result adapter with
  | Error e -> check string "same error again" first.Adapter.code e.Adapter.code
  | Ok _ -> Alcotest.fail "error was not sticky");
  (* the pull face raises the typed fault with the RSM-A code *)
  let adapter2 =
    Adapter.of_string ~format:Adapter.Text ~file:"sticky.trc" "1000 9 1 2 3\n"
  in
  let pull = Adapter.pull_exn adapter2 in
  match pull () with
  | _ -> Alcotest.fail "pull_exn returned on a malformed line"
  | exception Fault.Trace_fault f -> check string "pull fault" "RSM-A003" f.Fault.code

let riscv_loop_source =
  (* A tight RV32 loop: lw a0,0(a1); mul a0,a1,a2; sw a0,0(a2);
     bne x12,x13,-12 — the branch is taken (back to 0x1000) 5 times,
     then falls through to a final nop. *)
  let buffer = Buffer.create 512 in
  for i = 0 to 5 do
    Buffer.add_string buffer
      (Printf.sprintf "1000 0005a503 mem %x\n" (0x8000 + (8 * i)));
    Buffer.add_string buffer "1004 02c58533\n";
    Buffer.add_string buffer
      (Printf.sprintf "1008 00a62023 mem %x\n" (0x9000 + (8 * i)));
    Buffer.add_string buffer "100c fed61ae3\n"
  done;
  Buffer.add_string buffer "1010 00000013\n";
  Buffer.contents buffer

let test_riscv_decode_classes () =
  let records = adapt_exn ~format:Adapter.Riscv "riscv loop" riscv_loop_source in
  let correct =
    Array.to_list records |> List.filter (fun r -> not r.Record.wrong_path)
  in
  let count predicate = List.length (List.filter predicate correct) in
  check int "loads" 6
    (count (fun r ->
         match r.Record.payload with
         | Record.Memory { is_load = true; _ } -> true
         | _ -> false));
  check int "stores" 6
    (count (fun r ->
         match r.Record.payload with
         | Record.Memory { is_load = false; _ } -> true
         | _ -> false));
  check int "multiplies" 6
    (count (fun r ->
         match r.Record.payload with
         | Record.Other { op_class = Record.Mult } -> true
         | _ -> false));
  check bool "taken and not-taken conditionals" true
    (let taken, fallthrough =
       List.fold_left
         (fun (t, f) r ->
           match r.Record.payload with
           | Record.Branch { kind = Resim_isa.Opcode.Cond; taken; _ } ->
               if taken then (t + 1, f) else (t, f + 1)
           | _ -> (t, f))
         (0, 0) correct
     in
     taken = 5 && fallthrough = 1)

let test_adapted_streams_lint_clean () =
  List.iter
    (fun (label, format, source) ->
      let adapter = Adapter.of_string ~format ~file:"lint.trc" source in
      let report = Trace_check.lint_adapter adapter in
      check bool (label ^ " lints clean") true (Trace_check.clean report))
    [ ("text", Adapter.Text,
       "1000 0 1 2 3\n1004 0 2 1 1\n1000 0 1 2 3\n1004 0 2 1 1\n1008 0 3 2 1\n");
      ("riscv", Adapter.Riscv, riscv_loop_source) ]

(* Adapted streams carry synthesized wrong-path blocks once the
   predictor mispredicts; the engine must replay them as wrong-path
   fetches. *)
let test_adapter_wrong_path_reaches_engine () =
  let buffer = Buffer.create 4096 in
  (* alternate directions at one branch PC to defeat the predictor *)
  for i = 0 to 63 do
    Buffer.add_string buffer "1000 0 1 2 3\n";
    if i mod 2 = 0 then Buffer.add_string buffer "1004 0 2 1 1\n"
      (* next line loops back: taken *)
    else Buffer.add_string buffer "1004 0 2 1 1\n1008 0 3 2 1\n"
    (* fall-through: not taken *)
  done;
  let adapter =
    Adapter.of_string ~format:Adapter.Text ~file:"flip.trc"
      (Buffer.contents buffer)
  in
  let records =
    match Adapter.to_records_result adapter with
    | Ok records -> records
    | Error e -> Alcotest.failf "adapt: %s" (Adapter.error_to_string e)
  in
  let stats = Adapter.stats adapter in
  check bool "adapter saw mispredicts" true (stats.Adapter.mispredicted > 0);
  check bool "wrong-path records synthesized" true (stats.Adapter.wrong_path > 0);
  check int "tagged records in stream" stats.Adapter.wrong_path
    (Array.length (Array.of_seq
       (Seq.filter (fun r -> r.Record.wrong_path)
          (Array.to_seq records))));
  let robust =
    robust_exn "adapted simulate" (Resim.run (Source.of_array records))
  in
  check bool "engine fetched down the wrong path" true
    (Stats.get Stats.fetched_wrong_path robust.outcome.stats > 0L)

(* Round-trip property: adapt -> encode -> decode -> re-adapt agree. *)
let text_trace_gen =
  QCheck.Gen.(
    let line =
      map
        (fun (pc, op, (dst, src1, src2)) ->
          Printf.sprintf "%x %d %d %d %d" pc op dst src1 src2)
        (triple (int_bound 0xFFFF) (int_bound 2)
           (triple (int_range (-1) 31) (int_range (-1) 31) (int_range (-1) 31)))
    in
    map (String.concat "\n") (list_size (int_range 1 120) line))

let adapter_roundtrip =
  QCheck.Test.make ~name:"adapt -> encode -> decode -> re-adapt is identity"
    ~count:100
    (QCheck.make ~print:(fun s -> s) text_trace_gen)
    (fun source ->
      match adapt source with
      | Error _ -> QCheck.assume_fail ()
      | Ok records ->
          let again =
            match adapt source with
            | Ok r -> r
            | Error _ -> [||]
          in
          let decoded_fixed, _ = Codec.decode (Codec.encode ~format:Codec.Fixed records) in
          let decoded_compact, _ =
            Codec.decode (Codec.encode ~format:Codec.Compact records)
          in
          records = again
          && records = decoded_fixed
          && records = decoded_compact
          && Trace_check.clean (Trace_check.lint_records records))

(* ------------------------------------------------------------------- *)

let suite =
  [ ("frontier:streamed differential",
     [ Alcotest.test_case "pull path matches in-memory on all kernels" `Slow
         test_streamed_matches_in_memory ]);
    ("frontier:chunked cursor",
     [ Alcotest.test_case "agrees with in-memory on every corruption class"
         `Quick test_chunked_agrees_on_every_corruption_class;
       Alcotest.test_case "truncation at chunk boundaries" `Quick
         test_truncation_at_chunk_boundaries;
       Alcotest.test_case "offsets are absolute past refills" `Quick
         test_error_offset_is_past_first_chunk ]);
    ("frontier:streamed encoder",
     [ Alcotest.test_case "push/close round-trips with exact count" `Quick
         test_encoder_streamed_roundtrip;
       Alcotest.test_case "missing file is typed RSM-T009" `Quick
         test_read_file_missing_is_typed ]);
    ("frontier:shards",
     [ Alcotest.test_case "round-trip, expansion, per-shard lint" `Quick
         test_shard_roundtrip_and_lint;
       Alcotest.test_case "empty trace yields one empty shard" `Quick
         test_shard_empty_trace ]);
    ("frontier:multicore streams",
     [ Alcotest.test_case "truncated stream is `Truncated with fault" `Quick
         test_multicore_truncated_stream;
       Alcotest.test_case "stream feed matches records feed" `Quick
         test_multicore_stream_feed_matches_records_feed ]);
    ("frontier:adapters",
     [ Alcotest.test_case "tolerant lexing (CRLF, comments, blanks)" `Quick
         test_text_tolerant_lexing;
       Alcotest.test_case "fall-through reclassifies as not-taken" `Quick
         test_text_not_taken_reclassification;
       Alcotest.test_case "RSM-A catalog with file:line:col" `Quick
         test_adapter_rsm_a_catalog;
       Alcotest.test_case "errors are sticky; pull raises typed fault" `Quick
         test_adapter_errors_are_sticky;
       Alcotest.test_case "riscv decode classes" `Quick
         test_riscv_decode_classes;
       Alcotest.test_case "adapted streams lint clean" `Quick
         test_adapted_streams_lint_clean;
       Alcotest.test_case "synthesized wrong path reaches the engine" `Quick
         test_adapter_wrong_path_reaches_engine;
       QCheck_alcotest.to_alcotest adapter_roundtrip ]) ]
