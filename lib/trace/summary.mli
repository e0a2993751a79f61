(** Aggregate statistics over a trace. *)

type t = {
  total : int;
  correct_path : int;
  wrong_path : int;          (** tagged records *)
  branches : int;
  cond_branches : int;
  taken_branches : int;
  loads : int;
  stores : int;
  mults : int;
  divides : int;
}

val zero : t

val add : t -> Record.t -> t
(** Incremental fold step: [of_records] equals [fold_left add zero].
    Each step builds a fresh summary; streaming consumers that see
    every record count into a {!Tally} instead. *)

val of_records : Record.t array -> t

(** In-place counting for streams: {!Tally.add} allocates nothing; the
    immutable {!t} is built once, by {!Tally.freeze}. *)
module Tally : sig
  type summary := t
  type t

  val create : unit -> t
  val add : t -> Record.t -> unit
  val freeze : t -> summary
end

val wrong_path_fraction : t -> float
(** Fraction of trace records that are tagged — the paper reports this
    misprediction overhead at about 10 %. *)

val pp : Format.formatter -> t -> unit
