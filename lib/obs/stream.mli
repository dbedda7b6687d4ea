(** Consumer API over a captured event stream.

    The tracer stores flat events ({!Trace.event}); analyses downstream —
    the race detector above all — want typed views and per-cycle
    groupings. This module is the one place that knows the field-reuse
    conventions of each event kind, starting with [Mem_access]:
    [node] = the beta node owning the touched entries, [task] = serial
    of the task that ran the critical section, [scanned] = hash-line
    index, [emitted] = flag bits packed by {!access_bits}. *)

type mem_access = {
  ma_time : float;  (** global virtual time of the access *)
  ma_proc : int;    (** virtual processor that performed it *)
  ma_task : int;    (** task serial within the episode *)
  ma_node : int;    (** beta node owning the memory entries *)
  ma_line : int;    (** hash line = lock granule (§6.1) *)
  ma_cycle : int;
  ma_write : bool;
  ma_locked : bool; (** the section held the line lock *)
}

val access_bits : write:bool -> locked:bool -> int
(** Pack the flag bits stored in a [Mem_access] event's [emitted] field
    (bit 0 = write, bit 1 = locked). Engines call this at emission. *)

val mem_access_of_event : Trace.event -> mem_access option
(** [Some] exactly for [Mem_access] events. *)

val mem_accesses : Trace.event array -> mem_access list
(** All memory accesses of a stream, in stream (time) order. *)

val by_cycle : Trace.event array -> (int * Trace.event array) list
(** Split a stream into per-cycle sub-streams, ascending by cycle index.
    Task serial numbers restart every episode, so happens-before graphs
    must be built per cycle; cycles themselves are barrier-ordered. *)

val procs : Trace.event array -> int list
(** Distinct [proc] values appearing in the stream, ascending. Includes
    [-1] (the control process) when present. *)

(** {2 Binary persistence}

    Fixed-size little-endian records behind the magic ["PSMEEVS1"], so a
    capture can be written to disk and re-analysed offline. Kind tags
    come from {!Trace.kind_to_int} and are append-only. *)

val encode : Trace.event array -> string

val decode : string -> (Trace.event array, string) result
(** Errors (never exceptions) on a bad magic, a truncated header or
    event record, an unknown kind tag, or trailing bytes beyond the
    header's event count. *)

val write_file : string -> Trace.event array -> unit

val read_file : string -> (Trace.event array, string) result
(** [Error] also covers an unopenable file. *)
