(** Record sources for the engine.

    The engine walks its input monotonically (a cursor plus one-record
    lookahead for Tag-Bit detection), so besides whole in-memory arrays
    it can consume records *pulled on demand* from a live producer — the
    paper's future-work idea of feeding ReSim directly from a functional
    simulator, as in FAST. Both are one representation: a window of
    records starting at absolute index [base], refilled from a producer.
    An array source is a window that starts full with its producer
    already exhausted, so its array is never copied, compacted or
    written. A pull source reclaims records once the engine's cursor has
    passed them, keeping memory bounded for arbitrarily long runs.

    The record is readable for the production engine cycle (DESIGN.md
    §8): its fetch loop reads [window]/[base]/[length] inline and falls
    back to the calls below only at the window's edge. *)

type counter
(** Running count of the records already passed (see {!consumed}). *)

type t = private {
  pull : unit -> Resim_trace.Record.t option;
  mutable window : Resim_trace.Record.t array;
  mutable base : int;  (** absolute index of [window.(0)] *)
  mutable length : int;  (** valid records in the window *)
  mutable exhausted : bool;  (** the producer has returned [None] *)
  mutable reclaim_below : int;
  counter : counter;
}

val of_array : Resim_trace.Record.t array -> t
(** The array itself is the window; it is never modified. *)

val of_pull : (unit -> Resim_trace.Record.t option) -> t
(** [of_pull next] produces records by calling [next] on demand; [None]
    ends the stream. *)

val at : t -> int -> Resim_trace.Record.t option
(** [at source index] is the record at absolute position [index], pulling
    from the producer as needed. [None] means the stream ended before
    [index]. Raises [Invalid_argument] if [index] was already reclaimed
    by {!release_below}. *)

val has : t -> int -> bool
(** [has source index] is [at source index <> None] without allocating
    the option — the engine's end-of-trace check runs every cycle. *)

val get : t -> int -> Resim_trace.Record.t
(** [at] without the option, for the fetch loop (one call per record);
    raises [Invalid_argument] when the index is reclaimed or past the
    end — guard with {!has}. *)

val release_below : t -> int -> unit
(** Allow the source to reclaim storage for records at positions strictly
    below [index]. Only a live producer's window is ever compacted. *)

val buffered : t -> int
(** Records currently held in memory (diagnostics; the array source
    reports the full array length). *)

val consumed : t -> int -> Resim_trace.Summary.t * float
(** [consumed source cursor] summarises the records below [cursor] (the
    engine's final cursor) and their Fixed-format size in bits per
    instruction ({!Resim_trace.Codec.record_bits}). Records are counted
    as compaction passes them and the rest here, so the answer is the
    same for every kind of source. [cursor] must not decrease between
    calls. *)
