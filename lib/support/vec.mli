(** Growable arrays (OCaml 5.1 predates [Dynarray]).

    Not thread-safe; each engine owns its vectors or guards them with the
    locks it already holds for the enclosing structure. *)

type 'a t

val create : unit -> 'a t
val make : int -> 'a t
(** [make capacity] pre-sizes the backing store. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
(** Removes and returns the last element. *)

val pop_exn : 'a t -> 'a
(** [pop] without the option, for loops that test {!is_empty} first:
    allocates nothing. Raises [Invalid_argument] on an empty vector. *)

val get : 'a t -> int -> 'a
val unsafe_get : 'a t -> int -> 'a
(** [get] without the bounds check. The index must already be known to be
    [< length t] (e.g. a loop bound); for scan hot paths only. *)

val set : 'a t -> int -> 'a -> unit
val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a list -> 'a t
val last : 'a t -> 'a option
val swap_remove : 'a t -> int -> unit
(** O(1) removal that moves the last element into slot [i]. *)
