open Psme_ops5
open Network

type access = {
  acc_node : int;
  acc_line : int;
  acc_write : bool;
  acc_locked : bool;
}

type outcome = {
  children : Task.t array;
  scanned : int;
  matched : int;
  insts : (Task.flag * Conflict_set.inst) list;
  accesses : access list;
}

let no_children =
  { children = [||]; scanned = 0; matched = 0; insts = []; accesses = [] }

(* Fault-injection hook for the race detector's self-test: when set, exec
   sections run WITHOUT taking the line lock (and report their accesses as
   unlocked). Never enable outside analysis tests. *)
let elide = ref false
let set_lock_elision b = elide := b
let lock_elision () = !elide

let with_line net ~line f = if !elide then f () else Memory.locked net.mem ~line f

let access ~node ~line =
  { acc_node = node; acc_line = line; acc_write = true; acc_locked = not !elide }

(* --- fan-out ---------------------------------------------------------- *)

(* Fan-out through the node's precomputed successor array, in
   registration order; only the task records are allocated. *)

let task_to flag token (sid, port) =
  match port with
  | P_left -> Task.Left { node = sid; flag; token }
  | P_right -> Task.Rtok { node = sid; flag; token }

let emit n flag token = Array.map (task_to flag token) n.succs

(* Negative-node transitions carry their own flag per token. *)
let emit_transitions n transitions =
  let succs = n.succs in
  let ns = Array.length succs in
  match transitions with
  | [] -> [||]
  | (f0, t0) :: _ when ns > 0 ->
    let k = List.length transitions in
    let out = Array.make (k * ns) (task_to f0 t0 succs.(0)) in
    List.iteri
      (fun ti (fl, tok) ->
        for si = 0 to ns - 1 do
          out.((ti * ns) + si) <- task_to fl tok succs.(si)
        done)
      transitions;
    out
  | _ :: _ -> [||]

(* Fused extend+emit for join scans: the [k] matched operands arrive as
   a list in REVERSE scan order (one cons per match — an empty scan
   allocates nothing); rows are filled back-to-front so each extended
   token, in scan order, fans to every successor in registration order,
   without materializing the token list. Token extension is skipped
   entirely when the node has no successors (extension is pure, so
   nothing observable is lost). *)
let emit_extended n flag ~extend rev_ms k =
  let succs = n.succs in
  let ns = Array.length succs in
  if k = 0 || ns = 0 then [||]
  else begin
    let rec fill out ti = function
      | [] -> out
      | m :: rest ->
        let tok = extend m in
        let row = ti * ns in
        for si = 0 to ns - 1 do
          out.(row + si) <- task_to flag tok succs.(si)
        done;
        fill out (ti - 1) rest
    in
    match rev_ms with
    | [] -> [||]
    | last :: rest ->
      let tok = extend last in
      let out = Array.make (k * ns) (task_to flag tok succs.(0)) in
      let row = (k - 1) * ns in
      for si = 1 to ns - 1 do
        out.(row + si) <- task_to flag tok succs.(si)
      done;
      fill out (k - 2) rest
  end

(* --- entry ---------------------------------------------------------- *)

let exec_entry net n (flag : Task.flag) w =
  let kh = khash_entry n w in
  let line = Memory.line_of net.mem ~khash:kh in
  let acc = access ~node:n.id ~line in
  let transitioned =
    with_line net ~line (fun () ->
        match flag with
        | Task.Add -> Memory.right_add net.mem ~node:n.id ~khash:kh (Memory.R_wme w)
        | Task.Delete -> Memory.right_remove net.mem ~node:n.id ~khash:kh (Memory.R_wme w))
  in
  if not transitioned then { no_children with accesses = [ acc ] }
  else
    let tok = Token.singleton w in
    { children = emit n flag tok; scanned = 0; matched = 1; insts = [];
      accesses = [ acc ] }

(* --- join ----------------------------------------------------------- *)

let exec_join_left net n ti (flag : Task.flag) token =
  let kh = khash_left n token in
  let line = Memory.line_of net.mem ~khash:kh in
  let acc = access ~node:n.id ~line in
  let matches = ref [] in
  let nm = ref 0 in
  let scanned = ref 0 in
  let live =
    with_line net ~line (fun () ->
        let live =
          match flag with
          | Task.Add -> (
            match Memory.left_add net.mem ~node:n.id ~khash:kh token ~count:0 with
            | `Activated _ -> true
            | `Inert -> false)
          | Task.Delete -> (
            match Memory.left_remove net.mem ~node:n.id ~khash:kh token with
            | `Deactivated _ -> true
            | `Inert -> false)
        in
        if live then
          scanned :=
            Memory.right_iter net.mem ~node:n.id ~khash:kh (fun payload ->
                match payload with
                | Memory.R_wme w ->
                  if jtests_hold ti token w then begin
                    matches := w :: !matches;
                    incr nm
                  end
                | Memory.R_tok _ -> ());
        live)
  in
  if not live then { no_children with accesses = [ acc ] }
  else
    { children = emit_extended n flag ~extend:(fun w -> Token.extend token w) !matches !nm;
      scanned = !scanned; matched = !nm; insts = []; accesses = [ acc ] }

let exec_join_right net n ti (flag : Task.flag) w =
  let kh = khash_right n w in
  let line = Memory.line_of net.mem ~khash:kh in
  let acc = access ~node:n.id ~line in
  let matches = ref [] in
  let nm = ref 0 in
  let scanned = ref 0 in
  let live =
    with_line net ~line (fun () ->
        let live =
          match flag with
          | Task.Add -> Memory.right_add net.mem ~node:n.id ~khash:kh (Memory.R_wme w)
          | Task.Delete -> Memory.right_remove net.mem ~node:n.id ~khash:kh (Memory.R_wme w)
        in
        if live then
          scanned :=
            Memory.left_iter net.mem ~node:n.id ~khash:kh (fun e ->
                if jtests_hold ti e.Memory.l_token w then begin
                  matches := e.Memory.l_token :: !matches;
                  incr nm
                end);
        live)
  in
  if not live then { no_children with accesses = [ acc ] }
  else
    { children = emit_extended n flag ~extend:(fun tok -> Token.extend tok w) !matches !nm;
      scanned = !scanned; matched = !nm; insts = []; accesses = [ acc ] }

(* --- negative ------------------------------------------------------- *)

let exec_neg_left net n ti (flag : Task.flag) token =
  let kh = khash_left n token in
  let line = Memory.line_of net.mem ~khash:kh in
  let acc = access ~node:n.id ~line in
  let pass = ref false in
  let scanned = ref 0 in
  with_line net ~line (fun () ->
      match flag with
      | Task.Add ->
        let count = ref 0 in
        scanned :=
          Memory.right_iter net.mem ~node:n.id ~khash:kh (fun payload ->
              match payload with
              | Memory.R_wme w -> if jtests_hold ti token w then incr count
              | Memory.R_tok _ -> ());
        (match Memory.left_add net.mem ~node:n.id ~khash:kh token ~count:!count with
        | `Activated _ -> pass := !count = 0
        | `Inert -> ())
      | Task.Delete -> (
        match Memory.left_remove net.mem ~node:n.id ~khash:kh token with
        | `Deactivated e -> pass := e.Memory.l_count = 0
        | `Inert -> ()));
  if !pass then
    { children = emit n flag token; scanned = !scanned; matched = 1; insts = [];
      accesses = [ acc ] }
  else { no_children with scanned = !scanned; accesses = [ acc ] }

let exec_neg_right net n ti (flag : Task.flag) w =
  let kh = khash_right n w in
  let line = Memory.line_of net.mem ~khash:kh in
  let acc = access ~node:n.id ~line in
  let transitions = ref [] in
  let scanned = ref 0 in
  with_line net ~line (fun () ->
      match flag with
      | Task.Add ->
        if Memory.right_add net.mem ~node:n.id ~khash:kh (Memory.R_wme w) then
          scanned :=
            Memory.left_iter net.mem ~node:n.id ~khash:kh (fun e ->
                if jtests_hold ti e.Memory.l_token w then begin
                  e.Memory.l_count <- e.Memory.l_count + 1;
                  if e.Memory.l_count = 1 then
                    transitions := (Task.Delete, e.Memory.l_token) :: !transitions
                end)
      | Task.Delete ->
        if Memory.right_remove net.mem ~node:n.id ~khash:kh (Memory.R_wme w) then
          scanned :=
            Memory.left_iter net.mem ~node:n.id ~khash:kh (fun e ->
                if jtests_hold ti e.Memory.l_token w then begin
                  e.Memory.l_count <- e.Memory.l_count - 1;
                  if e.Memory.l_count = 0 then
                    transitions := (Task.Add, e.Memory.l_token) :: !transitions
                end));
  let transitions = List.rev !transitions in
  { children = emit_transitions n transitions; scanned = !scanned;
    matched = List.length transitions; insts = []; accesses = [ acc ] }

(* --- NCC ------------------------------------------------------------- *)

let exec_ncc_left net n (flag : Task.flag) token =
  let kh = khash_ncc_left n token in
  let line = Memory.line_of net.mem ~khash:kh in
  let acc = access ~node:n.id ~line in
  let pass = ref false in
  let scanned = ref 0 in
  with_line net ~line (fun () ->
      match flag with
      | Task.Add ->
        let count = ref 0 in
        scanned :=
          Memory.right_iter net.mem ~node:n.id ~khash:kh (fun payload ->
              match payload with
              | Memory.R_tok sub ->
                if Token.equal (Token.prefix sub (Token.length token)) token then incr count
              | Memory.R_wme _ -> ());
        (match Memory.left_add net.mem ~node:n.id ~khash:kh token ~count:!count with
        | `Activated _ -> pass := !count = 0
        | `Inert -> ())
      | Task.Delete -> (
        match Memory.left_remove net.mem ~node:n.id ~khash:kh token with
        | `Deactivated e -> pass := e.Memory.l_count = 0
        | `Inert -> ()));
  if !pass then
    { children = emit n flag token; scanned = !scanned; matched = 1; insts = [];
      accesses = [ acc ] }
  else { no_children with scanned = !scanned; accesses = [ acc ] }

let exec_ncc_partner net n ~ncc ~prefix_len (flag : Task.flag) subtok =
  let ncc_node = node net ncc in
  let prefix = Token.prefix subtok prefix_len in
  let kh = khash_ncc_right n subtok in
  let line = Memory.line_of net.mem ~khash:kh in
  let acc = access ~node:ncc ~line in
  let transitions = ref [] in
  let scanned = ref 0 in
  with_line net ~line (fun () ->
      match flag with
      | Task.Add ->
        if Memory.right_add net.mem ~node:ncc ~khash:kh (Memory.R_tok subtok) then
          scanned :=
            Memory.left_iter net.mem ~node:ncc ~khash:kh (fun e ->
                if Token.equal e.Memory.l_token prefix then begin
                  e.Memory.l_count <- e.Memory.l_count + 1;
                  if e.Memory.l_count = 1 then
                    transitions := (Task.Delete, e.Memory.l_token) :: !transitions
                end)
      | Task.Delete ->
        if Memory.right_remove net.mem ~node:ncc ~khash:kh (Memory.R_tok subtok) then
          scanned :=
            Memory.left_iter net.mem ~node:ncc ~khash:kh (fun e ->
                if Token.equal e.Memory.l_token prefix then begin
                  e.Memory.l_count <- e.Memory.l_count - 1;
                  if e.Memory.l_count = 0 then
                    transitions := (Task.Add, e.Memory.l_token) :: !transitions
                end));
  let transitions = List.rev !transitions in
  { children = emit_transitions ncc_node transitions; scanned = !scanned;
    matched = List.length transitions; insts = []; accesses = [ acc ] }

(* --- binary join (bilinear networks) --------------------------------- *)

let exec_bjoin_left net n bi (flag : Task.flag) token =
  let kh = khash_bjoin_left n token in
  let line = Memory.line_of net.mem ~khash:kh in
  let acc = access ~node:n.id ~line in
  let matches = ref [] in
  let nm = ref 0 in
  let scanned = ref 0 in
  let live =
    with_line net ~line (fun () ->
        let live =
          match flag with
          | Task.Add -> (
            match Memory.left_add net.mem ~node:n.id ~khash:kh token ~count:0 with
            | `Activated _ -> true
            | `Inert -> false)
          | Task.Delete -> (
            match Memory.left_remove net.mem ~node:n.id ~khash:kh token with
            | `Deactivated _ -> true
            | `Inert -> false)
        in
        if live then
          scanned :=
            Memory.right_iter net.mem ~node:n.id ~khash:kh (fun payload ->
                match payload with
                | Memory.R_tok rt ->
                  if btests_hold bi token rt then begin
                    matches := rt :: !matches;
                    incr nm
                  end
                | Memory.R_wme _ -> ());
        live)
  in
  if not live then { no_children with accesses = [ acc ] }
  else
    { children =
        emit_extended n flag !matches !nm
          ~extend:(fun rt -> Token.concat token (Token.suffix rt bi.right_drop));
      scanned = !scanned; matched = !nm; insts = []; accesses = [ acc ] }

let exec_bjoin_right net n bi (flag : Task.flag) rtok =
  let kh = khash_bjoin_right n rtok in
  let line = Memory.line_of net.mem ~khash:kh in
  let acc = access ~node:n.id ~line in
  let matches = ref [] in
  let nm = ref 0 in
  let scanned = ref 0 in
  let live =
    with_line net ~line (fun () ->
        let live =
          match flag with
          | Task.Add -> Memory.right_add net.mem ~node:n.id ~khash:kh (Memory.R_tok rtok)
          | Task.Delete -> Memory.right_remove net.mem ~node:n.id ~khash:kh (Memory.R_tok rtok)
        in
        if live then
          scanned :=
            Memory.left_iter net.mem ~node:n.id ~khash:kh (fun e ->
                if btests_hold bi e.Memory.l_token rtok then begin
                  matches := e.Memory.l_token :: !matches;
                  incr nm
                end);
        live)
  in
  if not live then { no_children with accesses = [ acc ] }
  else
    { children =
        emit_extended n flag !matches !nm
          ~extend:(fun lt -> Token.concat lt (Token.suffix rtok bi.right_drop));
      scanned = !scanned; matched = !nm; insts = []; accesses = [ acc ] }

(* --- P-node ----------------------------------------------------------- *)

let exec_pnode net _n pi (flag : Task.flag) token =
  let inst_token =
    match pi.perm with None -> token | Some perm -> Token.permute token perm
  in
  let inst =
    { Conflict_set.prod = pi.production.Production.name; token = inst_token }
  in
  (match flag with
  | Task.Add -> Conflict_set.add net.cs inst
  | Task.Delete -> Conflict_set.remove net.cs inst);
  { no_children with matched = 1; insts = [ (flag, inst) ] }

(* --- dispatch ---------------------------------------------------------- *)

(* Process-wide activation counters, shared by all engines (the
   observability layer's registry). Atomic, so the real parallel
   engine's domains can bump them concurrently. *)
let m_tasks = Psme_obs.Metrics.counter Psme_obs.Metrics.global "rete.runtime.tasks"
let m_scanned = Psme_obs.Metrics.counter Psme_obs.Metrics.global "rete.runtime.scanned"
let m_children = Psme_obs.Metrics.counter Psme_obs.Metrics.global "rete.runtime.children"

let m_alpha =
  Psme_obs.Metrics.counter Psme_obs.Metrics.global "rete.runtime.alpha_activations"

let exec_dispatch net task =
  match task with
  | Task.Right { node = nid; flag; wme } -> (
    match Hashtbl.find_opt net.beta nid with
    | None -> no_children  (* node excised while the task was queued *)
    | Some n -> (
      match n.kind with
      | Entry -> exec_entry net n flag wme
      | Join ti -> exec_join_right net n ti flag wme
      | Neg ti -> exec_neg_right net n ti flag wme
      | Ncc _ | Ncc_partner _ | Bjoin _ | Pnode _ ->
        invalid_arg "Runtime.exec: wme delivered to a token-only node"))
  | Task.Left { node = nid; flag; token } -> (
    match Hashtbl.find_opt net.beta nid with
    | None -> no_children
    | Some n -> (
      match n.kind with
      | Join ti -> exec_join_left net n ti flag token
      | Neg ti -> exec_neg_left net n ti flag token
      | Ncc _ -> exec_ncc_left net n flag token
      | Bjoin bi -> exec_bjoin_left net n bi flag token
      | Pnode pi -> exec_pnode net n pi flag token
      | Entry | Ncc_partner _ ->
        invalid_arg "Runtime.exec: left token delivered to a right-only node"))
  | Task.Rtok { node = nid; flag; token } -> (
    match Hashtbl.find_opt net.beta nid with
    | None -> no_children
    | Some n -> (
      match n.kind with
      | Ncc_partner { ncc; prefix_len } -> exec_ncc_partner net n ~ncc ~prefix_len flag token
      | Bjoin bi -> exec_bjoin_right net n bi flag token
      | Entry | Join _ | Neg _ | Ncc _ | Pnode _ ->
        invalid_arg "Runtime.exec: right token delivered to a non-binary node"))

let exec net task =
  let o = exec_dispatch net task in
  Psme_obs.Metrics.incr m_tasks;
  Psme_obs.Metrics.add m_scanned o.scanned;
  Psme_obs.Metrics.add m_children (Array.length o.children);
  o

(* --- alpha seeding ------------------------------------------------------ *)

let seed_wme_change ?(min_node_id = 0) net flag w =
  let tasks = ref [] in
  let activations =
    Alpha.matching_amems net.alpha w (fun amem ->
        List.iter
          (fun nid ->
            if nid >= min_node_id then
              tasks := Task.Right { node = nid; flag; wme = w } :: !tasks)
          (Alpha.successors net.alpha ~amem))
  in
  Psme_obs.Metrics.add m_alpha activations;
  (List.rev !tasks, activations)

(* --- replay (update phase, §5.2) ----------------------------------------- *)

let to_port ~child ~port flag token =
  match port with
  | P_left -> Task.Left { node = child; flag; token }
  | P_right -> Task.Rtok { node = child; flag; token }

let replay_parent net ~parent ~child ~port =
  let out = ref [] in
  let push tok = out := to_port ~child ~port Task.Add tok :: !out in
  (match parent.kind with
  | Entry ->
    Memory.iter_node_right net.mem ~node:parent.id (fun payload ->
        match payload with
        | Memory.R_wme w -> push (Token.singleton w)
        | Memory.R_tok _ -> ())
  | Join ti ->
    (* Recompute the join of the node's stored left and right state. *)
    let lefts = ref [] in
    Memory.iter_node_left net.mem ~node:parent.id (fun e -> lefts := e.Memory.l_token :: !lefts);
    List.iter
      (fun tok ->
        let kh = khash_left parent tok in
        let line = Memory.line_of net.mem ~khash:kh in
        Memory.locked net.mem ~line (fun () ->
            ignore
              (Memory.right_iter net.mem ~node:parent.id ~khash:kh (fun payload ->
                   match payload with
                   | Memory.R_wme w ->
                     if jtests_hold ti tok w then push (Token.extend tok w)
                   | Memory.R_tok _ -> ()))))
      !lefts
  | Neg _ | Ncc _ ->
    Memory.iter_node_left net.mem ~node:parent.id (fun e ->
        if e.Memory.l_count = 0 then push e.Memory.l_token)
  | Bjoin bi ->
    let lefts = ref [] in
    Memory.iter_node_left net.mem ~node:parent.id (fun e -> lefts := e.Memory.l_token :: !lefts);
    List.iter
      (fun tok ->
        let kh = khash_bjoin_left parent tok in
        let line = Memory.line_of net.mem ~khash:kh in
        Memory.locked net.mem ~line (fun () ->
            ignore
              (Memory.right_iter net.mem ~node:parent.id ~khash:kh (fun payload ->
                   match payload with
                   | Memory.R_tok rt ->
                     if btests_hold bi tok rt then
                       push (Token.concat tok (Token.suffix rt bi.right_drop))
                   | Memory.R_wme _ -> ()))))
      !lefts
  | Ncc_partner _ | Pnode _ ->
    invalid_arg "Runtime.replay_parent: node kind stores no replayable output");
  List.rev !out

let excess_cross_products net =
  let total = ref 0 in
  Hashtbl.iter
    (fun _ n ->
      match n.kind with
      | Bjoin _ ->
        Memory.iter_node_left net.mem ~node:n.id (fun _ -> incr total)
      | _ -> ())
    net.beta;
  !total
