open Psme_support
open Psme_ops5

type jtest = {
  l_slot : int;
  l_fld : int;
  rel : Cond.relation;
  r_fld : int;
}

type btest =
  | B_fields of { a_slot : int; a_fld : int; rel : Cond.relation; b_slot : int; b_fld : int }
  | B_same_wme of { a_slot : int; b_slot : int }

type two_input = {
  eq : jtest list;
  others : jtest list;
}

type binary = {
  b_eq : btest list;
  b_others : btest list;
  right_drop : int;
}

type pinfo = {
  production : Production.t;
  perm : int array option;
  bindings : (string * (int * int)) list;
}

type kind =
  | Entry
  | Join of two_input
  | Neg of two_input
  | Ncc of { prefix_len : int }
  | Ncc_partner of { ncc : int; prefix_len : int }
  | Bjoin of binary
  | Pnode of pinfo

type port = P_left | P_right

type node = {
  id : int;
  kind : kind;
  parent : int option;
  alpha_src : int option;
  (* successor fan-out in registration order, kept as an immutable array
     that is replaced wholesale when the wiring changes (build/update
     time only): activation emit indexes it without allocating and
     without a lock, even while a run-time addition patches the fan-out
     (§5.1). *)
  mutable succs : (int * port) array;
}

type config = {
  share : bool;
  bilinear : bool;
  bilinear_ctx : int;
  bilinear_group : int;
  bilinear_min_ces : int;
  lines : int;
  reorder_joins : bool;
}

let default_config =
  { share = true; bilinear = false; bilinear_ctx = 3; bilinear_group = 3;
    bilinear_min_ces = 8; lines = 512; reorder_joins = false }

type pmeta = {
  pnode : int;
  meta_production : Production.t;
  chain : int list;
  created_nodes : int list;
}

type t = {
  schema : Schema.t;
  config : config;
  counter : int ref;
  beta : (int, node) Hashtbl.t;
  alpha : Alpha.t;
  mem : Memory.t;
  cs : Conflict_set.t;
  prods : (Sym.t, pmeta) Hashtbl.t;
  mutable prod_order_rev : Sym.t list;
  share_index : (int * int, int list) Hashtbl.t;
}

let create ?(config = default_config) schema =
  (* One monotone counter serves alpha and beta nodes alike (§5.2). *)
  let counter = ref 0 in
  let alloc () =
    let i = !counter in
    incr counter;
    i
  in
  {
    schema;
    config;
    counter;
    beta = Hashtbl.create 256;
    alpha = Alpha.create ~alloc_id:alloc;
    mem = Memory.create ~lines:config.lines ();
    cs = Conflict_set.create ();
    prods = Hashtbl.create 64;
    prod_order_rev = [];
    share_index = Hashtbl.create 256;
  }

let next_id t = !(t.counter)

let alloc_id t =
  let i = !(t.counter) in
  incr t.counter;
  i

let add_node t ~kind ~parent ~alpha_src =
  let n = { id = alloc_id t; kind; parent; alpha_src; succs = [||] } in
  Hashtbl.replace t.beta n.id n;
  n

let node t id = Hashtbl.find t.beta id
let node_opt t id = Hashtbl.find_opt t.beta id

let iter_nodes t f = Hashtbl.iter (fun _ n -> f n) t.beta

let fold_nodes t ~init ~f = Hashtbl.fold (fun _ n acc -> f acc n) t.beta init

let successor_array n = n.succs

let successors n = Array.to_list n.succs

let add_successor t ~of_ ~node:nid ~port =
  let p = node t of_ in
  if not (Array.exists (fun (i, _) -> i = nid) p.succs) then
    p.succs <- Array.append p.succs [| (nid, port) |]

let remove_successor t ~of_ ~node:nid =
  let p = node t of_ in
  if Array.exists (fun (i, _) -> i = nid) p.succs then
    p.succs <-
      Array.of_list (List.filter (fun (i, _) -> i <> nid) (Array.to_list p.succs))

let productions t =
  List.rev_map (fun s -> Hashtbl.find t.prods s) t.prod_order_rev

let find_production t name = Hashtbl.find_opt t.prods name

let beta_node_count t = Hashtbl.length t.beta

let two_input_node_count t =
  Hashtbl.fold
    (fun _ n acc ->
      match n.kind with
      | Join _ | Neg _ | Ncc _ | Bjoin _ -> acc + 1
      | Entry | Ncc_partner _ | Pnode _ -> acc)
    t.beta 0

(* --- hash keys ----------------------------------------------------- *)

let mix acc v = (acc * 31) + Value.hash v land max_int

let id_seed id = (id * 0x9e3779b1) land max_int

(* The hash folds and test loops below run on every activation and
   every scanned candidate, so they recurse directly instead of passing
   closures to [List] iterators: a closure over the token or wme would
   be allocated per call. *)

let rec right_key w acc = function
  | [] -> acc
  | jt :: rest -> right_key w (mix acc (Wme.field w jt.r_fld)) rest

let rec left_key tok acc = function
  | [] -> acc
  | jt :: rest -> left_key tok (mix acc (Token.field tok ~slot:jt.l_slot ~fld:jt.l_fld)) rest

let khash_right n w =
  match n.kind with
  | Join ti | Neg ti -> right_key w (id_seed n.id) ti.eq
  | Entry | Ncc _ | Ncc_partner _ | Bjoin _ | Pnode _ ->
    invalid_arg "khash_right: not a wme-joining node"

let khash_left n tok =
  match n.kind with
  | Join ti | Neg ti -> left_key tok (id_seed n.id) ti.eq
  | Entry | Ncc _ | Ncc_partner _ | Bjoin _ | Pnode _ ->
    invalid_arg "khash_left: not a wme-joining node"

let khash_entry n w = (id_seed n.id + Wme.hash w) land max_int

let khash_ncc_left n tok =
  match n.kind with
  | Ncc _ -> (id_seed n.id + Token.hash tok) land max_int
  | _ -> invalid_arg "khash_ncc_left"

let khash_ncc_right n subtok =
  match n.kind with
  | Ncc_partner { ncc; prefix_len } ->
    (id_seed ncc + Token.hash (Token.prefix subtok prefix_len)) land max_int
  | _ -> invalid_arg "khash_ncc_right"

let btest_left_hash acc tok = function
  | B_fields { a_slot; a_fld; rel = Cond.Eq; _ } ->
    mix acc (Token.field tok ~slot:a_slot ~fld:a_fld)
  | B_same_wme { a_slot; _ } ->
    (acc * 31) + (Token.wme tok a_slot).Wme.timetag land max_int
  | B_fields _ -> acc

let btest_right_hash acc tok = function
  | B_fields { b_slot; b_fld; rel = Cond.Eq; _ } ->
    mix acc (Token.field tok ~slot:b_slot ~fld:b_fld)
  | B_same_wme { b_slot; _ } ->
    (acc * 31) + (Token.wme tok b_slot).Wme.timetag land max_int
  | B_fields _ -> acc

let rec bkey step tok acc = function
  | [] -> acc
  | bt :: rest -> bkey step tok (step acc tok bt) rest

let khash_bjoin_left n tok =
  match n.kind with
  | Bjoin b -> bkey btest_left_hash tok (id_seed n.id) b.b_eq
  | _ -> invalid_arg "khash_bjoin_left"

let khash_bjoin_right n tok =
  match n.kind with
  | Bjoin b -> bkey btest_right_hash tok (id_seed n.id) b.b_eq
  | _ -> invalid_arg "khash_bjoin_right"

(* --- test evaluation ---------------------------------------------- *)

let jtest_holds tok w jt =
  Cond.eval_relation jt.rel
    (Token.field tok ~slot:jt.l_slot ~fld:jt.l_fld)
    (Wme.field w jt.r_fld)

let rec jtests_all tok w = function
  | [] -> true
  | jt :: rest -> jtest_holds tok w jt && jtests_all tok w rest

let jtests_hold ti tok w = jtests_all tok w ti.eq && jtests_all tok w ti.others

let btest_holds a b = function
  | B_fields { a_slot; a_fld; rel; b_slot; b_fld } ->
    Cond.eval_relation rel
      (Token.field a ~slot:a_slot ~fld:a_fld)
      (Token.field b ~slot:b_slot ~fld:b_fld)
  | B_same_wme { a_slot; b_slot } -> Wme.equal (Token.wme a a_slot) (Token.wme b b_slot)

let rec btests_all a b = function
  | [] -> true
  | bt :: rest -> btest_holds a b bt && btests_all a b rest

let btests_hold bi a b = btests_all a b bi.b_eq && btests_all a b bi.b_others

(* --- instantiation bindings ---------------------------------------- *)

let pinfo_of t name =
  match Hashtbl.find_opt t.prods name with
  | None -> raise Not_found
  | Some pm -> (
    match (node t pm.pnode).kind with
    | Pnode pi -> pi
    | _ -> assert false)

let binding_value pi tok var =
  let slot, fld = List.assoc var pi.bindings in
  Token.field tok ~slot ~fld

let bindings_of t name tok =
  let pi = pinfo_of t name in
  List.map (fun (v, (slot, fld)) -> (v, Token.field tok ~slot ~fld)) pi.bindings
