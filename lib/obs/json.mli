(** Minimal JSON emission and validation.

    The container carries no JSON library, and the observability layer
    only needs to {e write} machine-readable exports (telemetry snapshots,
    [Cycle.to_json], Chrome trace files) and to {e check} them in tests,
    so this module provides exactly that: a small document type with a
    serializer, low-level [Buffer] helpers for bulk writers that cannot
    afford an intermediate tree (the Chrome exporter), and a validating
    parser used by the test suite and by consumers that want a sanity
    check before shipping a file. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values serialize as [null] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

(** {2 Low-level buffer helpers} *)

val escape_to_buffer : Buffer.t -> string -> unit
(** Append a quoted, escaped JSON string. *)

val float_to_buffer : Buffer.t -> float -> unit
(** Append a float literal ([null] when not finite). *)

(** {2 Parsing} *)

val parse : string -> (t, string) result
(** Parse one complete JSON document into a tree. Numbers without a
    fraction or exponent become [Int], others [Float] (so round-trips
    of this module's own output preserve constructors); [\u] escapes
    are decoded to UTF-8. Errors report a byte offset. *)

val validate : string -> (unit, string) result
(** Check that the whole input is one well-formed JSON document.
    Errors report a byte offset. *)

(** {2 Tree accessors} *)

val member : string -> t -> t option
(** [member k j] is field [k] of object [j]; [None] on non-objects or
    missing fields. *)

val to_float_opt : t -> float option
(** Numeric value of an [Int] or [Float] node. *)
