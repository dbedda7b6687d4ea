(** Model of generated machine-code size (Table 5-1).

    PSM-E compiled each node to open-coded NS32032 machine code; the
    paper reports ~219–304 bytes per two-input node (inline-expanded)
    and notes closed-coding would shrink that to ~15–20 bytes at some
    speed cost. Our "code generation" targets heap data structures, so
    we report a byte model derived from the node structure: a fixed
    open-coded body per node kind plus per-test and per-successor
    instruction sequences. The model's constants are stated here so the
    Table 5-1 reproduction is an honest function of the networks we
    actually build, not an echo of the paper's numbers. *)

val bytes_of_node : Network.t -> Network.node -> int

val bytes_of_addition : Network.t -> Build.add_result -> int
(** Bytes of code generated when this production was added: the sum over
    the nodes the addition actually created (shared nodes cost nothing,
    which is exactly why shared compilation is smaller and faster).
    Nodes the addition created but a later excise removed contribute
    nothing. *)

val bytes_of_production : Network.t -> Network.pmeta -> int
(** {!bytes_of_addition} for a production already in the network (the
    nodes recorded in its [created_nodes]). *)

(** {2 Sharing accounting}

    Ownership recomputed over the productions {e currently} in the
    network (excised productions own nothing — their unshared nodes are
    gone and their shared nodes are re-attributed to the surviving
    chains). *)

type sharing = {
  sh_nodes : int;  (** live beta nodes on some live production chain *)
  sh_shared : int;  (** nodes on at least two live chains *)
  sh_bytes : int;  (** byte model total over owned nodes *)
  sh_per_production : (Psme_support.Sym.t * int * int) list;
      (** (production, owned nodes, owned bytes), in addition order; a
          shared node is owned by the earliest-added live production
          whose chain runs through it *)
}

val sharing_report : Network.t -> sharing

val bytes_per_two_input_node : Network.t -> Build.add_result -> float
(** Average over the two-input nodes created by the addition; [nan] if
    it created none. *)
