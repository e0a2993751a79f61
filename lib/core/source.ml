type counter = {
  tally : Resim_trace.Summary.Tally.t;
  sizing : Resim_trace.Codec.encoder_state;
  mutable bits : int;
  mutable tallied : int;  (* absolute index: records below are counted *)
}

type t = {
  pull : unit -> Resim_trace.Record.t option;
  mutable window : Resim_trace.Record.t array;
  mutable base : int;       (* absolute index of window.(0) *)
  mutable length : int;     (* valid records in the window *)
  mutable exhausted : bool;
  mutable reclaim_below : int;
  counter : counter;
}

let make ~pull ~window ~length ~exhausted =
  { pull;
    window;
    base = 0;
    length;
    exhausted;
    reclaim_below = 0;
    counter =
      { tally = Resim_trace.Summary.Tally.create ();
        sizing = Resim_trace.Codec.fresh_state ();
        bits = 0;
        tallied = 0 } }

let of_array records =
  make ~pull:(fun () -> None) ~window:records ~length:(Array.length records)
    ~exhausted:true

let initial_window = 1024

let of_pull pull =
  make ~pull
    ~window:
      (Array.make initial_window
         Resim_trace.Record.
           { pc = 0; wrong_path = false; dest = 0; src1 = 0; src2 = 0;
             payload = Other { op_class = Alu } })
    ~length:0 ~exhausted:false

(* Count the windowed records in [tallied, upto), in trace order. *)
let tally_upto t upto =
  let c = t.counter in
  for index = c.tallied to upto - 1 do
    let record = t.window.(index - t.base) in
    Resim_trace.Summary.Tally.add c.tally record;
    c.bits <-
      c.bits + Resim_trace.Codec.record_bits Fixed c.sizing record
  done;
  if upto > c.tallied then c.tallied <- upto

(* Drop reclaimed records by shifting the window down, counting them on
   the way out; grow it when the producer runs ahead of reclamation. *)
let compact t =
  let reclaimable = t.reclaim_below - t.base in
  let reclaimable = if reclaimable < 0 then 0 else reclaimable in
  let drop = if reclaimable < t.length then reclaimable else t.length in
  if drop > 0 then begin
    tally_upto t (t.base + drop);
    Array.blit t.window drop t.window 0 (t.length - drop);
    t.base <- t.base + drop;
    t.length <- t.length - drop
  end

let append t record =
  if t.length = Array.length t.window then begin
    compact t;
    if t.length = Array.length t.window then begin
      let bigger = Array.make (2 * Array.length t.window) record in
      Array.blit t.window 0 bigger 0 t.length;
      t.window <- bigger
    end
  end;
  t.window.(t.length) <- record;
  t.length <- t.length + 1

let rec fill_to t index =
  if t.base + t.length > index || t.exhausted then ()
  else
    match t.pull () with
    | Some record ->
        append t record;
        fill_to t index
    | None -> t.exhausted <- true

let at t index =
  if index < t.base then invalid_arg "Source.at: index already reclaimed";
  fill_to t index;
  if index < t.base + t.length then Some t.window.(index - t.base) else None

let get t index =
  if index < t.base then invalid_arg "Source.get: index already reclaimed";
  fill_to t index;
  if index < t.base + t.length then t.window.(index - t.base)
  else invalid_arg "Source.get: past end of stream"

let has t index =
  if index < t.base then invalid_arg "Source.has: index already reclaimed";
  fill_to t index;
  index < t.base + t.length

let release_below t index =
  if (not t.exhausted) && index > t.reclaim_below then begin
    t.reclaim_below <- index;
    (* Compact lazily but keep the window from growing without bound
       when the producer is bursty. *)
    if t.reclaim_below - t.base > Array.length t.window / 2 then compact t
  end

let buffered t = t.length

let consumed t cursor =
  tally_upto t cursor;
  let summary = Resim_trace.Summary.Tally.freeze t.counter.tally in
  ( summary,
    if summary.Resim_trace.Summary.total = 0 then 0.0
    else float_of_int t.counter.bits /. float_of_int summary.total )
