open Psme_ops5
open Network

type access = {
  acc_node : int;
  acc_line : int;
  acc_write : bool;
  acc_locked : bool;
}

type outcome = {
  mutable children : Task.t array;
  mutable scanned : int;
  mutable insts : (Task.flag * Conflict_set.inst) list;
  mutable sec_node : int;
  mutable sec_line : int;
  mutable sec_locked : bool;
}

let outcome () =
  { children = [||]; scanned = 0; insts = []; sec_node = -1; sec_line = 0; sec_locked = false }

let accesses o =
  if o.sec_node < 0 then []
  else
    [ { acc_node = o.sec_node; acc_line = o.sec_line; acc_write = true;
        acc_locked = o.sec_locked } ]

(* Fault-injection hook for the race detector's self-test: when set, exec
   sections run WITHOUT taking the line lock (and report their accesses as
   unlocked). Never enable outside analysis tests. *)
let elide = ref false
let set_lock_elision b = elide := b

(* Every exec section is bracketed by [enter]/[leave] and releases the
   lock on the exceptional path too:

     match <section> with
     | v -> leave net ~line locked; v
     | exception e -> leave net ~line locked; raise e

   Results the section computes besides its value go through local refs
   that no closure captures, which the compiler turns into plain
   variables: the bracket allocates nothing. *)
let enter net ~line =
  if !elide then false
  else begin
    Memory.lock net.mem ~line;
    true
  end

let leave net ~line locked = if locked then Memory.unlock net.mem ~line

(* Record a task whose single line-lock section touched [n]'s entries. *)
let finish o n ~line ~locked children ~scanned =
  o.children <- children;
  o.scanned <- scanned;
  o.insts <- [];
  o.sec_node <- n.id;
  o.sec_line <- line;
  o.sec_locked <- locked

(* Record a task that performed no line-lock section. *)
let finish_unlocked o insts =
  o.children <- [||];
  o.scanned <- 0;
  o.insts <- insts;
  o.sec_node <- -1

let right_change mem ~node ~khash (flag : Task.flag) payload =
  match flag with
  | Task.Add -> Memory.right_add mem ~node ~khash payload
  | Task.Delete -> Memory.right_remove mem ~node ~khash payload

(* --- fan-out ---------------------------------------------------------- *)

(* Fan-out through the node's precomputed successor array, in
   registration order; only the task records and the array holding them
   are allocated. *)

let task_to flag token (sid, port) =
  match port with
  | P_left -> Task.Left { node = sid; flag; token }
  | P_right -> Task.Rtok { node = sid; flag; token }

(* Write one token's fan-out into [out] at [row]: a task per successor,
   in registration order, from successor [from] on. Each emitter below
   seeds its array with the first task of its last row, so that row
   starts at 1 and no task is built twice. *)
let fan_out out ~row ~from succs flag token =
  for si = from to Array.length succs - 1 do
    out.(row + si) <- task_to flag token succs.(si)
  done

let emit n flag token =
  let succs = n.succs in
  if Array.length succs = 0 then [||]
  else begin
    let out = Array.make (Array.length succs) (task_to flag token succs.(0)) in
    fan_out out ~row:0 ~from:1 succs flag token;
    out
  end

(* Negative-node transitions carry their own flag per token. The [k]
   transitions arrive in REVERSE scan order (the scan conses them);
   rows are filled back to front, so the tasks come out in scan order. *)
let emit_transitions n rev_transitions k =
  let succs = n.succs in
  let ns = Array.length succs in
  match rev_transitions with
  | [] -> [||]
  | _ :: _ when ns = 0 -> [||]
  | (f0, t0) :: _ ->
    let out = Array.make (k * ns) (task_to f0 t0 succs.(0)) in
    fan_out out ~row:((k - 1) * ns) ~from:1 succs f0 t0;
    let rest = ref rev_transitions in
    for ti = k - 2 downto 0 do
      match !rest with
      | [] | [ _ ] -> assert false
      | _ :: ((fl, tok) :: _ as tl) ->
        fan_out out ~row:(ti * ns) ~from:0 succs fl tok;
        rest := tl
    done;
    out

(* Fused extend+emit for join scans: the [k] matched operands arrive in
   REVERSE scan order (one cons per match — an empty scan allocates
   nothing); [extend a b m] builds the token for operand [m] from the
   activation's own data [a], [b] (a closed function, so no closure is
   allocated per task). Rows are filled back to front, so each extended
   token, in scan order, fans to every successor in registration order.
   Token extension is skipped entirely when the node has no successors
   (extension is pure, so nothing observable is lost). *)
let emit_extended n flag extend a b rev_ms k =
  let succs = n.succs in
  let ns = Array.length succs in
  match rev_ms with
  | [] -> [||]
  | _ :: _ when ns = 0 -> [||]
  | last :: _ ->
    let last_tok = extend a b last in
    let out = Array.make (k * ns) (task_to flag last_tok succs.(0)) in
    fan_out out ~row:((k - 1) * ns) ~from:1 succs flag last_tok;
    let rest = ref rev_ms in
    for ti = k - 2 downto 0 do
      match !rest with
      | [] | [ _ ] -> assert false
      | _ :: (m :: _ as tl) ->
        fan_out out ~row:(ti * ns) ~from:0 succs flag (extend a b m);
        rest := tl
    done;
    out

let extend_left token () w = Token.extend token w
let extend_right w () tok = Token.extend tok w
let concat_left token bi rt = Token.concat token (Token.suffix rt bi.right_drop)
let concat_right rtok bi lt = Token.concat lt (Token.suffix rtok bi.right_drop)

(* --- scan steps --------------------------------------------------------- *)

(* Closed step functions for [Memory.left_fold]/[right_fold]: everything
   they need arrives as the two environment arguments. *)

let join_left_step ti token acc = function
  | Memory.R_wme w -> if jtests_hold ti token w then w :: acc else acc
  | Memory.R_tok _ -> acc

let join_right_step ti w acc e =
  let tok = e.Memory.l_token in
  if jtests_hold ti tok w then tok :: acc else acc

let neg_count_step ti token count = function
  | Memory.R_wme w -> if jtests_hold ti token w then count + 1 else count
  | Memory.R_tok _ -> count

(* A right add blocks the left tokens it matches (count 0 -> 1: emit
   their deletion); a right delete releases them (1 -> 0: re-add). *)
let neg_block_step ti w acc e =
  if jtests_hold ti e.Memory.l_token w then begin
    e.Memory.l_count <- e.Memory.l_count + 1;
    if e.Memory.l_count = 1 then (Task.Delete, e.Memory.l_token) :: acc else acc
  end
  else acc

let neg_release_step ti w acc e =
  if jtests_hold ti e.Memory.l_token w then begin
    e.Memory.l_count <- e.Memory.l_count - 1;
    if e.Memory.l_count = 0 then (Task.Add, e.Memory.l_token) :: acc else acc
  end
  else acc

let ncc_count_step token len count = function
  | Memory.R_tok sub ->
    if Token.equal (Token.prefix sub len) token then count + 1 else count
  | Memory.R_wme _ -> count

let ncc_block_step prefix () acc e =
  if Token.equal e.Memory.l_token prefix then begin
    e.Memory.l_count <- e.Memory.l_count + 1;
    if e.Memory.l_count = 1 then (Task.Delete, e.Memory.l_token) :: acc else acc
  end
  else acc

let ncc_release_step prefix () acc e =
  if Token.equal e.Memory.l_token prefix then begin
    e.Memory.l_count <- e.Memory.l_count - 1;
    if e.Memory.l_count = 0 then (Task.Add, e.Memory.l_token) :: acc else acc
  end
  else acc

let bjoin_left_step bi token acc = function
  | Memory.R_tok rt -> if btests_hold bi token rt then rt :: acc else acc
  | Memory.R_wme _ -> acc

let bjoin_right_step bi rtok acc e =
  let tok = e.Memory.l_token in
  if btests_hold bi tok rtok then tok :: acc else acc

(* A left add/remove that crossed the activation threshold. *)
let left_live mem ~node ~khash (flag : Task.flag) token =
  match flag with
  | Task.Add -> (
    match Memory.left_add mem ~node ~khash token ~count:0 with
    | `Activated _ -> true
    | `Inert -> false)
  | Task.Delete -> (
    match Memory.left_remove mem ~node ~khash token with
    | `Deactivated _ -> true
    | `Inert -> false)

(* --- sections ------------------------------------------------------- *)

(* Every two-input activation is one of four section shapes; [khash]
   names the bucket, and the step and extension functions with their
   environments make up the node kind's tests (see [exec_node]). *)

(* Entry: a wme becomes a one-wme token on the activation transition. *)
let exec_entry o net n (flag : Task.flag) w =
  let mem = net.mem in
  let kh = khash_entry n w in
  let line = Memory.line_of mem ~khash:kh in
  let locked = enter net ~line in
  let transitioned =
    match right_change mem ~node:n.id ~khash:kh flag (Memory.R_wme w) with
    | v ->
      leave net ~line locked;
      v
    | exception e ->
      leave net ~line locked;
      raise e
  in
  finish o n ~line ~locked
    (if transitioned then emit n flag (Token.singleton w) else [||])
    ~scanned:0

(* Join-like left activation (join, binary join): insert or remove the
   token; on the transition, pair it with every right partner. *)
let scan_left o net n ~khash (flag : Task.flag) token step env extend xenv =
  let mem = net.mem in
  let line = Memory.line_of mem ~khash in
  let locked = enter net ~line in
  let scanned = ref 0 in
  let matches =
    match
      if left_live mem ~node:n.id ~khash flag token then begin
        scanned := Memory.right_length mem ~line;
        Memory.right_fold mem ~node:n.id ~khash step env token []
      end
      else []
    with
    | v ->
      leave net ~line locked;
      v
    | exception e ->
      leave net ~line locked;
      raise e
  in
  let k = List.length matches in
  finish o n ~line ~locked (emit_extended n flag extend token xenv matches k) ~scanned:!scanned

(* Join-like right activation: insert or remove the right [payload]
   (carrying [x]); on the transition, pair it with every left token. *)
let scan_right o net n ~khash (flag : Task.flag) payload x step env extend xenv =
  let mem = net.mem in
  let line = Memory.line_of mem ~khash in
  let locked = enter net ~line in
  let scanned = ref 0 in
  let matches =
    match
      if right_change mem ~node:n.id ~khash flag payload then begin
        scanned := Memory.left_length mem ~line;
        Memory.left_fold mem ~node:n.id ~khash step env x []
      end
      else []
    with
    | v ->
      leave net ~line locked;
      v
    | exception e ->
      leave net ~line locked;
      raise e
  in
  let k = List.length matches in
  finish o n ~line ~locked (emit_extended n flag extend x xenv matches k) ~scanned:!scanned

(* Negative-like left activation (negative, NCC): count the token's
   right partners with [count_step a b] and store the count; the token
   passes on when it has none. *)
let gate_left o net n ~khash (flag : Task.flag) token count_step a b =
  let mem = net.mem in
  let line = Memory.line_of mem ~khash in
  let locked = enter net ~line in
  let scanned = ref 0 in
  let pass =
    match
      match flag with
      | Task.Add -> (
        scanned := Memory.right_length mem ~line;
        let count = Memory.right_fold mem ~node:n.id ~khash count_step a b 0 in
        match Memory.left_add mem ~node:n.id ~khash token ~count with
        | `Activated _ -> count = 0
        | `Inert -> false)
      | Task.Delete -> (
        match Memory.left_remove mem ~node:n.id ~khash token with
        | `Deactivated e -> e.Memory.l_count = 0
        | `Inert -> false)
    with
    | v ->
      leave net ~line locked;
      v
    | exception e ->
      leave net ~line locked;
      raise e
  in
  finish o n ~line ~locked (if pass then emit n flag token else [||]) ~scanned:!scanned

(* Negative-like right activation: a right add blocks the left tokens
   it matches, a right delete releases them; the tokens whose count
   crossed 0 change flag downstream. [owner] holds the memories and the
   fan-out: the node itself, or the NCC node for its partner. *)
let gate_right o net owner ~khash (flag : Task.flag) payload block release a b =
  let mem = net.mem in
  let line = Memory.line_of mem ~khash in
  let locked = enter net ~line in
  let scanned = ref 0 in
  let transitions =
    match
      if right_change mem ~node:owner.id ~khash flag payload then begin
        scanned := Memory.left_length mem ~line;
        let step = match flag with Task.Add -> block | Task.Delete -> release in
        Memory.left_fold mem ~node:owner.id ~khash step a b []
      end
      else []
    with
    | v ->
      leave net ~line locked;
      v
    | exception e ->
      leave net ~line locked;
      raise e
  in
  let k = List.length transitions in
  finish o owner ~line ~locked (emit_transitions owner transitions k) ~scanned:!scanned

(* --- P-node ----------------------------------------------------------- *)

let exec_pnode o net pi (flag : Task.flag) token =
  let inst_token =
    match pi.perm with None -> token | Some perm -> Token.permute token perm
  in
  let inst =
    { Conflict_set.prod = pi.production.Production.name; token = inst_token }
  in
  (match flag with
  | Task.Add -> Conflict_set.add net.cs inst
  | Task.Delete -> Conflict_set.remove net.cs inst);
  finish_unlocked o [ (flag, inst) ]

(* --- dispatch ---------------------------------------------------------- *)

let exec_node o net n task =
  match task with
  | Task.Right { flag; wme; _ } -> (
    match n.kind with
    | Entry -> exec_entry o net n flag wme
    | Join ti ->
      scan_right o net n ~khash:(khash_right n wme) flag (Memory.R_wme wme) wme
        join_right_step ti extend_right ()
    | Neg ti ->
      gate_right o net n ~khash:(khash_right n wme) flag (Memory.R_wme wme)
        neg_block_step neg_release_step ti wme
    | Ncc _ | Ncc_partner _ | Bjoin _ | Pnode _ ->
      invalid_arg "Runtime.exec: wme delivered to a token-only node")
  | Task.Left { flag; token; _ } -> (
    match n.kind with
    | Join ti ->
      scan_left o net n ~khash:(khash_left n token) flag token join_left_step ti
        extend_left ()
    | Neg ti -> gate_left o net n ~khash:(khash_left n token) flag token neg_count_step ti token
    | Ncc _ ->
      gate_left o net n ~khash:(khash_ncc_left n token) flag token ncc_count_step token
        (Token.length token)
    | Bjoin bi ->
      scan_left o net n ~khash:(khash_bjoin_left n token) flag token bjoin_left_step bi
        concat_left bi
    | Pnode pi -> exec_pnode o net pi flag token
    | Entry | Ncc_partner _ ->
      invalid_arg "Runtime.exec: left token delivered to a right-only node")
  | Task.Rtok { flag; token; _ } -> (
    match n.kind with
    | Ncc_partner { ncc; prefix_len } ->
      (* the partner's results land in the NCC node's own memories *)
      gate_right o net (node net ncc) ~khash:(khash_ncc_right n token) flag
        (Memory.R_tok token) ncc_block_step ncc_release_step
        (Token.prefix token prefix_len) ()
    | Bjoin bi ->
      scan_right o net n ~khash:(khash_bjoin_right n token) flag (Memory.R_tok token) token
        bjoin_right_step bi concat_right bi
    | Entry | Join _ | Neg _ | Ncc _ | Pnode _ ->
      invalid_arg "Runtime.exec: right token delivered to a non-binary node")

let exec net node task o =
  match node with
  | None -> finish_unlocked o [] (* node excised while the task was queued *)
  | Some n -> exec_node o net n task

(* --- alpha seeding ------------------------------------------------------ *)

let iter_seeds ?(min_node_id = 0) net flag w f =
  Alpha.matching_amems net.alpha w (fun amem ->
      let succs = Alpha.successors net.alpha ~amem in
      for i = 0 to Array.length succs - 1 do
        let nid = succs.(i) in
        if nid >= min_node_id then f (Task.Right { node = nid; flag; wme = w })
      done)

let seed_wme_change ?min_node_id net flag w =
  let tasks = ref [] in
  let activations = iter_seeds ?min_node_id net flag w (fun t -> tasks := t :: !tasks) in
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
