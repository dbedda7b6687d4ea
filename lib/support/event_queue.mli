(** Priority queue of timestamped events for discrete-event simulation.

    A binary min-heap on [(time, seq)]: ties in time are broken by
    insertion order so that simulations are fully deterministic. *)

type 'a t

val create : unit -> 'a t
val add : 'a t -> time:float -> 'a -> unit
val pop : 'a t -> (float * 'a) option
(** Earliest event, or [None] when empty. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val clear : 'a t -> unit
