type mem_access = {
  ma_time : float;
  ma_proc : int;
  ma_task : int;
  ma_node : int;
  ma_line : int;
  ma_cycle : int;
  ma_write : bool;
  ma_locked : bool;
}

let access_bits ~write ~locked =
  (if write then 1 else 0) lor if locked then 2 else 0

let mem_access_of_event (e : Trace.event) =
  match e.Trace.kind with
  | Trace.Mem_access ->
    Some
      {
        ma_time = e.t_us;
        ma_proc = e.proc;
        ma_task = e.task;
        ma_node = e.node;
        ma_line = e.scanned;
        ma_cycle = e.cycle;
        ma_write = e.emitted land 1 <> 0;
        ma_locked = e.emitted land 2 <> 0;
      }
  | _ -> None

let mem_accesses events =
  Array.to_list events |> List.filter_map mem_access_of_event

let by_cycle (events : Trace.event array) =
  let tbl : (int, Trace.event list) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (e : Trace.event) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl e.Trace.cycle) in
      Hashtbl.replace tbl e.Trace.cycle (e :: prev))
    events;
  Hashtbl.fold (fun c evs acc -> (c, Array.of_list (List.rev evs)) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let procs (events : Trace.event array) =
  let seen = Hashtbl.create 8 in
  Array.iter (fun (e : Trace.event) -> Hashtbl.replace seen e.Trace.proc ()) events;
  Hashtbl.fold (fun p () acc -> p :: acc) seen [] |> List.sort compare

(* --- binary persistence -------------------------------------------------- *)

(* Fixed-size little-endian records behind an 8-byte magic so captures
   can be saved and re-analysed offline. Layout per event (73 bytes):
   kind tag byte, t_us and dur_us as float64 bit patterns, then proc,
   node, task, parent, cycle, scanned, emitted as int64. The count in
   the header is authoritative: trailing bytes after [count] events are
   a decode error, not ignored padding. *)

let magic = "PSMEEVS1"
let event_size = 1 + (2 * 8) + (7 * 8)

let encode (events : Trace.event array) =
  let buf = Buffer.create (String.length magic + 8 + (Array.length events * event_size)) in
  Buffer.add_string buf magic;
  Buffer.add_int64_le buf (Int64.of_int (Array.length events));
  Array.iter
    (fun (e : Trace.event) ->
      Buffer.add_uint8 buf (Trace.kind_to_int e.Trace.kind);
      Buffer.add_int64_le buf (Int64.bits_of_float e.Trace.t_us);
      Buffer.add_int64_le buf (Int64.bits_of_float e.Trace.dur_us);
      Buffer.add_int64_le buf (Int64.of_int e.Trace.proc);
      Buffer.add_int64_le buf (Int64.of_int e.Trace.node);
      Buffer.add_int64_le buf (Int64.of_int e.Trace.task);
      Buffer.add_int64_le buf (Int64.of_int e.Trace.parent);
      Buffer.add_int64_le buf (Int64.of_int e.Trace.cycle);
      Buffer.add_int64_le buf (Int64.of_int e.Trace.scanned);
      Buffer.add_int64_le buf (Int64.of_int e.Trace.emitted))
    events;
  Buffer.contents buf

let decode s =
  let header = String.length magic + 8 in
  if String.length s < header then Error "truncated header"
  else if String.sub s 0 (String.length magic) <> magic then
    Error "bad magic (not a PSMEEVS1 event stream)"
  else begin
    let count = Int64.to_int (String.get_int64_le s (String.length magic)) in
    if count < 0 then Error "negative event count"
    else if String.length s <> header + (count * event_size) then
      Error
        (Printf.sprintf "stream length %d does not match %d events"
           (String.length s) count)
    else begin
      let err = ref None in
      let events =
        Array.init count (fun i ->
            let off = header + (i * event_size) in
            let f64 k = Int64.float_of_bits (String.get_int64_le s (off + k)) in
            let i64 k = Int64.to_int (String.get_int64_le s (off + k)) in
            let kind =
              match Trace.kind_of_int (Char.code s.[off]) with
              | k -> k
              | exception Invalid_argument _ ->
                if !err = None then
                  err :=
                    Some
                      (Printf.sprintf "unknown event tag %d at event %d"
                         (Char.code s.[off]) i);
                Trace.Task_start
            in
            {
              Trace.t_us = f64 1;
              kind;
              proc = i64 17;
              node = i64 25;
              task = i64 33;
              parent = i64 41;
              cycle = i64 49;
              dur_us = f64 9;
              scanned = i64 57;
              emitted = i64 65;
            })
      in
      match !err with Some m -> Error m | None -> Ok events
    end
  end

let write_file path events =
  let oc = open_out_bin path in
  output_string oc (encode events);
  close_out oc

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    decode s
