type result = {
  stats : Stats.t;
  correct_path : int;
  wrong_path : int;
  mispredicted_branches : int;
  peak_buffered_records : int;
}

let run ?(config = Config.reference) ?generator program =
  let generator =
    match generator with
    | Some generator_config -> generator_config
    | None ->
        { Resim_tracegen.Generator.predictor = config.predictor;
          wrong_path_limit = config.rob_entries + config.ifq_entries;
          max_instructions = 20_000_000 }
  in
  let stream = Resim_tracegen.Stream.create ~config:generator program in
  let source = Source.of_pull (fun () -> Resim_tracegen.Stream.pull stream) in
  (* The window's high-water mark, sampled as each cycle closes. *)
  let peak = ref 0 in
  let instrument engine =
    Engine.set_phase_probe engine (function
      | Engine.Ph_account -> peak := max !peak (Source.buffered source)
      | _ -> ())
  in
  let outcome =
    Result.fold ~ok:(fun robust -> robust.Resim.outcome)
      ~error:Resim.raise_failure
      (Resim.run ~config ~instrument source)
  in
  { stats = outcome.stats;
    correct_path = Resim_tracegen.Stream.correct_path stream;
    wrong_path = Resim_tracegen.Stream.wrong_path stream;
    mispredicted_branches =
      Resim_tracegen.Stream.mispredicted_branches stream;
    peak_buffered_records = !peak }
