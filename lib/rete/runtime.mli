(** Executing node activations.

    [exec] performs one task against the shared match state and writes
    the successor tasks plus the work accounting the simulator's cost
    model charges for into the caller's {!outcome} buffer. Inserting
    into a memory and probing the opposite memory happen under the
    entry's line lock, so concurrent executions of joinable activations
    produce each join result exactly once (see {!Memory}). Thread-safe:
    any number of match processes may call [exec] concurrently, each
    with its own buffer.

    One interpreter executes every node kind. PSM-E compiled each node
    to machine code (§4), but what the paper measures — run-time chunk
    addition (§5.1/§5.2) and match parallelism — does not depend on
    that; DESIGN §4b gives the measurements behind the choice. *)

open Psme_ops5

type access = {
  acc_node : int;   (** beta node owning the memory entries touched *)
  acc_line : int;   (** hash line (lock granule, §6.1) *)
  acc_write : bool; (** every exec section mutates (insert-then-probe) *)
  acc_locked : bool;  (** false only under {!set_lock_elision} *)
}
(** One critical section performed against the global hashed memories.
    Engines forward these to the trace as [Mem_access] events; the race
    detector replays them against the happens-before order. *)

type outcome = {
  mutable children : Task.t array;
      (** successor tasks, in emission order (tokens in production
          order, successors in registration order) *)
  mutable scanned : int;  (** opposite-memory entries scanned under the lock *)
  mutable insts : (Task.flag * Conflict_set.inst) list;
      (** conflict-set transitions performed (P-node activations only) —
          engines running asynchronous elaboration fire these without
          waiting for quiescence (paper §7) *)
  mutable sec_node : int;
      (** node owning the memory entries of the task's line-lock
          section; [-1] when it performed none (P-nodes, excised
          nodes). Every other activation performs exactly one section,
          carried in these scalar fields so that no [access] is built
          unless a tracer asks for it ({!accesses}). *)
  mutable sec_line : int;  (** that section's hash line *)
  mutable sec_locked : bool;  (** false only under {!set_lock_elision} *)
}
(** What one activation did: an engine-owned buffer that {!exec}
    overwrites, so executing a task allocates no result record. The
    [children] array and [insts] list are fresh per task and may be
    kept; the buffer itself is reused by the next [exec]. *)

val outcome : unit -> outcome
(** A fresh buffer. A match process owns one and passes it to every
    {!exec} it performs. *)

val exec : Network.t -> Network.node option -> Task.t -> outcome -> unit
(** [exec net node task o] runs one activation and overwrites every
    field of [o] with its result. [node] is
    [Network.node_opt net (Task.node task)], looked up once by the
    engine (which also needs its kind for the cost model). A task
    addressed to a node excised while it was queued ([None]) is a no-op.

    Allocates only what the activation keeps or hands on — memory
    entries, extended tokens, child tasks, conflict-set instantiations.
    The line lock is taken through {!Memory.lock}/{!Memory.unlock} and
    released if the section raises. *)

val accesses : outcome -> access list
(** The line-lock sections the task performed (empty for P-nodes and
    excised nodes): what tracers forward as [Mem_access] events. *)

val set_lock_elision : bool -> unit
(** Fault injection for the race detector's self-test: when enabled, exec
    critical sections skip the line lock and report their accesses with
    [acc_locked = false]. Process-wide; reset to [false] after use. *)

val iter_seeds :
  ?min_node_id:int -> Network.t -> Task.flag -> Wme.t -> (Task.t -> unit) -> int
(** Run the alpha (constant-test) network for one wme change, applying
    the function to each right activation it produces, in order, and
    return the number of constant-test node activations performed.
    [min_node_id] filters deliveries to nodes with at least that ID —
    the §5.2 update filter. Engines push the activations straight onto
    their task stacks. *)

val seed_wme_change :
  ?min_node_id:int -> Network.t -> Task.flag -> Wme.t -> Task.t list * int
(** {!iter_seeds} collected into a list, plus the activation count. *)

val replay_parent :
  Network.t -> parent:Network.node -> child:int -> port:Network.port -> Task.t list
(** "Specially execute" an existing node: recompute its stored output
    tokens from its memory state and address them to exactly one (new)
    successor — the last-shared-node step of the §5.2 update. *)
