module Writer = struct
  type t = {
    buffer : Buffer.t;
    mutable acc : int;     (* pending bits, left-aligned in [acc_bits] *)
    mutable acc_bits : int;
    mutable total : int;
  }

  let create () = { buffer = Buffer.create 4096; acc = 0; acc_bits = 0; total = 0 }

  let flush_bytes w =
    while w.acc_bits >= 8 do
      let shift = w.acc_bits - 8 in
      Buffer.add_char w.buffer (Char.chr ((w.acc lsr shift) land 0xff));
      w.acc <- w.acc land ((1 lsl shift) - 1);
      w.acc_bits <- shift
    done

  let put w ~bits value =
    if bits <= 0 || bits > 62 then invalid_arg "Bitio.Writer.put: bits";
    let masked = value land ((1 lsl bits) - 1) in
    (* Emit in chunks small enough to keep [acc] within native int range. *)
    let rec emit bits =
      if bits > 0 then begin
        let chunk = min bits (56 - w.acc_bits) in
        let shift = bits - chunk in
        w.acc <- (w.acc lsl chunk) lor ((masked lsr shift) land ((1 lsl chunk) - 1));
        w.acc_bits <- w.acc_bits + chunk;
        flush_bytes w;
        emit shift
      end
    in
    emit bits;
    w.total <- w.total + bits

  let put_bool w b = put w ~bits:1 (if b then 1 else 0)

  let bit_length w = w.total

  let contents w =
    (* Zero-pad the pending bits into a final byte without touching the
       writer state: [contents] is a pure snapshot, so calling it twice
       — or continuing to [put] afterwards — stays correct. *)
    if w.acc_bits = 0 then Buffer.contents w.buffer
    else
      Buffer.contents w.buffer
      ^ String.make 1 (Char.chr ((w.acc lsl (8 - w.acc_bits)) land 0xff))

  (* Streaming support: hand over the complete bytes accumulated so far
     and reset the byte buffer, keeping the sub-byte remainder pending.
     Unlike [contents] this never pads, so a producer can [drain]
     between records indefinitely and the bit stream stays seamless. *)
  let drain w =
    let bytes = Buffer.contents w.buffer in
    Buffer.clear w.buffer;
    bytes

  let buffered_bytes w = Buffer.length w.buffer
end

module Reader = struct
  (* A reader is either a whole in-memory string ([refill = None]) or a
     bounded sliding chunk over a larger stream: when the current chunk
     is exhausted, [refill] produces the next one ("" = end of stream).
     [base] is the absolute stream offset of [data.[0]], so byte
     positions — and therefore every diagnostic derived from them — are
     absolute regardless of chunking. *)
  type t = {
    mutable data : string;
    mutable byte : int;
    mutable bit : int;   (* bits already consumed of [data.[byte]] *)
    mutable total : int; (* absolute bits consumed *)
    mutable base : int;  (* absolute stream offset of [data.[0]] *)
    refill : (unit -> string) option;
    mutable eof : bool;  (* refill returned "" — the stream is over *)
  }

  exception Out_of_bits

  let create data =
    { data; byte = 0; bit = 0; total = 0; base = 0; refill = None;
      eof = true }

  let of_refill refill =
    { data = ""; byte = 0; bit = 0; total = 0; base = 0;
      refill = Some refill; eof = false }

  (* Bits known to remain without asking the producer for more: exact
     for string readers, a lower bound mid-stream for chunked ones. *)
  let bits_remaining r = ((r.base + String.length r.data) * 8) - r.total

  (* Whether at least [n] more bits exist, pulling chunks as needed;
     never raises. Fully consumed bytes are dropped at each refill —
     the unread tail (including the partially
     consumed current byte, when [bit] > 0) is retained in front of the
     new chunk, so memory stays O(chunk + record) and positions stay
     absolute via [base]. *)
  let rec has_bits r n =
    if bits_remaining r >= n then true
    else
      match r.refill with
      | None -> false
      | Some refill ->
          if r.eof then false
          else begin
            let chunk = refill () in
            if String.length chunk = 0 then begin
              r.eof <- true;
              false
            end
            else begin
              let keep = String.length r.data - r.byte in
              let tail =
                if keep > 0 then String.sub r.data r.byte keep else ""
              in
              r.base <- r.base + r.byte;
              r.data <- tail ^ chunk;
              r.byte <- 0;
              has_bits r n
            end
          end

  (* Bytewise read of [bits] (<= 55) bits the window already holds:
     whole bytes into the accumulator, which then carries at most 7
     spare bits of the last byte and so stays within a native int;
     nothing is allocated. *)
  let take r bits =
    let data = r.data in
    let first = Char.code (String.unsafe_get data r.byte) in
    let acc = ref (first land (0xff lsr r.bit)) in
    let have = ref (8 - r.bit) and byte = ref r.byte in
    while !have < bits do
      incr byte;
      acc := (!acc lsl 8) lor Char.code (String.unsafe_get data !byte);
      have := !have + 8
    done;
    r.total <- r.total + bits;
    r.byte <- (r.total lsr 3) - r.base;
    r.bit <- r.total land 7;
    !acc lsr (!have - bits)

  (* Whole bytes whenever the bits are (or can be refilled to be)
     buffered; wider fields split in two. A read running off the end of
     the stream leaves the state a bit-at-a-time read leaves — every
     available bit consumed, positions at the end — and fails. *)
  let rec get r ~bits =
    if bits <= 0 || bits > 62 then invalid_arg "Bitio.Reader.get: bits";
    if bits > 55 then begin
      let high = get r ~bits:(bits - 32) in
      let low = get r ~bits:32 in
      (high lsl 32) lor low
    end
    else if bits_remaining r >= bits || has_bits r bits then take r bits
    else begin
      r.byte <- String.length r.data;
      r.bit <- 0;
      r.total <- (r.base + r.byte) * 8;
      raise Out_of_bits
    end

  let get_bool r = get r ~bits:1 = 1

  let bits_consumed r = r.total

  (* The absolute stream offset of the byte holding the next unread bit
     (= stream length so far when exhausted). *)
  let byte_position r = r.base + r.byte

  let seek_byte r byte =
    let local = byte - r.base in
    if local < 0 || local > String.length r.data then
      invalid_arg "Bitio.Reader.seek_byte: out of range";
    r.byte <- local;
    r.bit <- 0;
    r.total <- byte * 8
end
