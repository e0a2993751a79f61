(** On-the-fly co-simulation — functional simulator feeding the timing
    engine directly, the FAST-style mode the paper names as future work
    (§VI: “produce the trace on the fly directly from a functional
    simulator”).

    The incremental generator ({!Resim_tracegen.Stream}) and the engine
    are coupled through a pull {!Source} run by {!Resim.run}; records
    are produced exactly when the engine's fetch unit needs them and
    reclaimed once consumed, so memory stays bounded by the engine's
    lookahead instead of the trace length. Results are bit-identical to
    the offline pipeline (generate-then-simulate), which an integration
    test asserts. *)

type result = {
  stats : Stats.t;
  correct_path : int;           (** instructions functionally executed *)
  wrong_path : int;             (** tagged records produced *)
  mispredicted_branches : int;
  peak_buffered_records : int;
      (** high-water mark of the pull window, sampled as each cycle
          closes *)
}

val run :
  ?config:Config.t ->
  ?generator:Resim_tracegen.Generator.config ->
  Resim_isa.Program.t ->
  result
(** When [generator] is omitted it mirrors the engine configuration
    (same predictor; wrong-path limit ROB + IFQ), as in
    {!Resim.simulate_program}. Raises {!Engine.Deadlock} if the
    progress watchdog trips. *)
