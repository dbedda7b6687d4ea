(** The two global hashed token memories (paper §6.1).

    PSM-E keeps the state of {e all} left memory nodes in one hash table
    and of all right memory nodes in another. The hash key combines (1)
    the values of the variable bindings tested for equality at the
    destination two-input node and (2) that node's unique ID, so tokens
    that could pass the node's equal-variable tests land in the same
    bucket. A {e line} is the pair of corresponding left/right buckets;
    one lock guards a line, which is exactly what makes a two-input
    node's insert-then-probe atomic with respect to the opposite side
    (each joinable pair of activations is serialized by its common line,
    so every join result is produced exactly once).

    Entries are {e reference counted}: within one buffered cycle an add
    wave and a delete wave for the same data may be processed in either
    order on different match processes, so a delete arriving before its
    add leaves a negative entry that the add later annihilates. The
    [`Activated]/[`Deactivated] transitions (refs crossing 1 and 0) are
    the only points where join results are emitted, which makes the
    final match state independent of scheduling.

    Left entries are tokens with a mutable counter (used by negative and
    NCC nodes); right entries are wmes (for joins/negatives) or tokens
    (subnetwork results arriving at NCC partners).

    Internally each line also keeps a secondary index from [(node,
    khash)] to the positions of that key's entries, so probes and
    iterations walk only their own chain instead of every entry sharing
    the line. The index preserves line order (positions are visited
    ascending), so iteration yields the same entry sequence a full line
    scan would — the serial engine's schedule, and every derived
    measurement, is unchanged. The scan cost the simulator charges is
    still the {e line} population ({!left_length}, {!right_length}: the
    paper's bucket-scan cost), not the number of entries physically
    visited.

    Probes, folds and the lock pair allocate nothing: an activation that
    adds no entry leaves no garbage here. *)

open Psme_ops5

type left_entry = {
  l_token : Token.t;
  mutable l_refs : int;
  mutable l_count : int;  (** negative-join result count; 0 for joins *)
}

type right_payload =
  | R_wme of Wme.t
  | R_tok of Token.t

type t

val create : ?lines:int -> unit -> t
(** [lines] defaults to 512 and is rounded up to a power of two. *)

val line_of : t -> khash:int -> int

val lock : t -> line:int -> unit
(** Take the line lock, spinning while another process holds it and
    counting the spins (and the contended acquisition) into telemetry.
    Allocation-free, so the match hot path takes its line lock through
    this pair rather than {!locked}. Every [lock] must be paired with
    exactly one {!unlock} of the same line on every path out of the
    critical section, exceptions included. *)

val unlock : t -> line:int -> unit

val locked : t -> line:int -> (unit -> 'a) -> 'a
(** [lock], run the critical section, [unlock] — also when the section
    raises. All functions below must be called with the entry's line
    locked (they do not themselves lock). *)

val left_add :
  t -> node:int -> khash:int -> Token.t -> count:int ->
  [ `Activated of left_entry | `Inert ]
(** [`Activated] when the entry's reference count crossed to 1 (the
    caller should probe and emit); [`Inert] when the add annihilated an
    early delete. [count] initializes the negative-join counter on a
    fresh entry. *)

val left_remove :
  t -> node:int -> khash:int -> Token.t -> [ `Deactivated of left_entry | `Inert ]
(** [`Deactivated] when the count crossed to 0 (caller emits deletes);
    [`Inert] records an early delete (tombstone). *)

val left_fold :
  t -> node:int -> khash:int -> ('a -> 'b -> 'acc -> left_entry -> 'acc) -> 'a -> 'b -> 'acc -> 'acc
(** [left_fold t ~node ~khash f a b init] folds [f a b] over the
    {e active} (refs >= 1) entries of [node] in the bucket, in line
    order. [a] and [b] carry what the step needs, so a caller passing a
    closed function (one with no free variables) scans without
    allocating. Only the [(node, khash)] chain is physically visited;
    the simulator charges for the whole line ({!left_length}). *)

val left_length : t -> line:int -> int
(** Population of the line's left side: the comparison count the
    simulator charges for a bucket scan. *)

val left_iter : t -> node:int -> khash:int -> (left_entry -> unit) -> int
(** {!left_fold} with a callback; returns {!left_length} of the
    bucket's line. *)

val right_add : t -> node:int -> khash:int -> right_payload -> bool
(** True when the payload became active (probe and emit). *)

val right_remove : t -> node:int -> khash:int -> right_payload -> bool
(** True when the payload became inactive (probe and emit deletes). *)

val right_fold :
  t -> node:int -> khash:int -> ('a -> 'b -> 'acc -> right_payload -> 'acc) -> 'a -> 'b -> 'acc -> 'acc
(** {!left_fold} over the bucket's active right entries. *)

val right_length : t -> line:int -> int

val right_iter : t -> node:int -> khash:int -> (right_payload -> unit) -> int

val drop_node : t -> node:int -> unit
(** Remove all entries belonging to a node (excising a production). *)

val iter_node_left : t -> node:int -> (left_entry -> unit) -> unit
(** Visit every active left entry of a node across all lines, taking
    each line's lock. Used when a last-shared node is "specially
    executed" to replay its stored state during a run-time update
    (§5.2). *)

val iter_node_right : t -> node:int -> (right_payload -> unit) -> unit

val fold_left_entries :
  t -> init:'a -> f:('a -> node:int -> khash:int -> left_entry -> 'a) -> 'a
(** Fold over {e every} left entry across all lines — including
    tombstones ([l_refs <= 0]) — taking each line's lock. The state
    verifier's snapshot hook: at quiescence the visible entries are
    exactly the node memories' contents. *)

val fold_right_entries :
  t ->
  init:'a ->
  f:('a -> node:int -> khash:int -> refs:int -> right_payload -> 'a) ->
  'a

(** {2 Instrumentation} *)

val reset_cycle_stats : t -> unit
(** Fold the per-cycle access counters into the histogram and clear them
    (call at each elaboration-cycle boundary). *)

val left_accesses_per_line : t -> int array
(** Left-token accesses per line since the last reset — the quantity of
    Figure 6-2. *)

val access_histogram : t -> (int * int) list
(** Accumulated over all completed cycles, sorted by key: [(k, n)]
    where [n] is the total number of left accesses that landed on lines
    receiving exactly [k] left accesses within their cycle. Units are
    {e accesses}, not distinct tokens or line populations: a line with
    [k] accesses in a cycle contributes [k] to bin [k], so each [n] is a
    multiple of [k] and [sum n = total left accesses] over the
    accumulated cycles. Normalizing [n] by the total gives Figure 6-2's
    "percent of left tokens with [k] accesses to their bucket". *)

val clear_access_histogram : t -> unit

val total_left_accesses : t -> int
(** Left accesses since creation or the last {!clear_access_histogram}:
    the histogram's bins plus the live per-line counters. *)
