type t = {
  total : int;
  correct_path : int;
  wrong_path : int;
  branches : int;
  cond_branches : int;
  taken_branches : int;
  loads : int;
  stores : int;
  mults : int;
  divides : int;
}

let zero =
  { total = 0; correct_path = 0; wrong_path = 0; branches = 0;
    cond_branches = 0; taken_branches = 0; loads = 0; stores = 0;
    mults = 0; divides = 0 }

(* Mutable twin of [t]: streaming consumers count in place, allocating
   nothing per record, and freeze once at the end. *)
module Tally = struct
  type summary = t

  type t = {
    mutable total : int; mutable correct_path : int;
    mutable wrong_path : int; mutable branches : int;
    mutable cond_branches : int; mutable taken_branches : int;
    mutable loads : int; mutable stores : int;
    mutable mults : int; mutable divides : int;
  }

  let of_summary (s : summary) =
    { total = s.total; correct_path = s.correct_path;
      wrong_path = s.wrong_path; branches = s.branches;
      cond_branches = s.cond_branches; taken_branches = s.taken_branches;
      loads = s.loads; stores = s.stores; mults = s.mults;
      divides = s.divides }

  let create () = of_summary zero

  let add t (record : Record.t) =
    t.total <- t.total + 1;
    if record.wrong_path then t.wrong_path <- t.wrong_path + 1
    else t.correct_path <- t.correct_path + 1;
    match record.payload with
    | Branch { kind; taken; _ } ->
        t.branches <- t.branches + 1;
        (match kind with
        | Cond -> t.cond_branches <- t.cond_branches + 1
        | Jump | Call | Ret | Indirect -> ());
        if taken then t.taken_branches <- t.taken_branches + 1
    | Memory { is_load = true; _ } -> t.loads <- t.loads + 1
    | Memory { is_load = false; _ } -> t.stores <- t.stores + 1
    | Other { op_class = Mult } -> t.mults <- t.mults + 1
    | Other { op_class = Divide } -> t.divides <- t.divides + 1
    | Other { op_class = Alu } -> ()

  let freeze t : summary =
    { total = t.total; correct_path = t.correct_path;
      wrong_path = t.wrong_path; branches = t.branches;
      cond_branches = t.cond_branches; taken_branches = t.taken_branches;
      loads = t.loads; stores = t.stores; mults = t.mults;
      divides = t.divides }
end

let add acc record =
  let tally = Tally.of_summary acc in
  Tally.add tally record;
  Tally.freeze tally

let of_records records =
  let tally = Tally.create () in
  Array.iter (Tally.add tally) records;
  Tally.freeze tally

let wrong_path_fraction t =
  if t.total = 0 then 0.0 else float_of_int t.wrong_path /. float_of_int t.total

let pp ppf t =
  Format.fprintf ppf
    "@[<v>records: %d (%d correct, %d wrong-path = %.1f%%)@,\
     branches: %d (%d conditional, %d taken)@,\
     memory: %d loads, %d stores@,\
     long-latency: %d mult, %d div@]"
    t.total t.correct_path t.wrong_path (100.0 *. wrong_path_fraction t)
    t.branches t.cond_branches t.taken_branches t.loads t.stores t.mults
    t.divides
