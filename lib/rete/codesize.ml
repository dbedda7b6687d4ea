(* Open-coded constants (bytes): a two-input node's body inlines the
   hash computation (~40B), the line lock acquire/release (~36B), the
   opposite-memory scan loop (~48B), and the child-token build and
   queue-push sequence (~26B per successor); each equality test inlines
   a field fetch + compare (~28B) and each residual predicate a call-out
   (~20B). Entry and P-nodes are simpler bodies. (Closed coding would
   replace the inline sequences with calls into a shared runtime — the
   paper's 15–20B/node figure; PSM-E measured open-coded code, and so
   does this model.) *)

let two_input_base = 150
let per_eq_test = 28
let per_other_test = 20
let per_successor = 26
let entry_base = 84
let pnode_base = 120
let ncc_base = 140
let partner_base = 110
let bjoin_base = 170
let per_btest = 30

let bytes_of_node _net (n : Network.node) =
  let nsucc = List.length (Network.successors n) in
  match n.Network.kind with
  | Network.Entry -> entry_base + (per_successor * nsucc)
  | Network.Join ti | Network.Neg ti ->
    two_input_base
    + (per_eq_test * List.length ti.Network.eq)
    + (per_other_test * List.length ti.Network.others)
    + (per_successor * nsucc)
  | Network.Ncc _ -> ncc_base + (per_successor * nsucc)
  | Network.Ncc_partner _ -> partner_base
  | Network.Bjoin bi ->
    bjoin_base
    + (per_btest * (List.length bi.Network.b_eq + List.length bi.Network.b_others))
    + (per_successor * nsucc)
  | Network.Pnode _ -> pnode_base

(* Addition results can outlive their nodes (a later excise removes
   unshared parts of the chain); dead ids contribute nothing rather than
   raising. *)
let bytes_of_production net (pm : Network.pmeta) =
  List.fold_left
    (fun acc nid ->
      match Network.node_opt net nid with
      | Some n -> acc + bytes_of_node net n
      | None -> acc)
    0 pm.Network.created_nodes

let bytes_of_addition net (res : Build.add_result) = bytes_of_production net res.Build.meta

(* --- sharing accounting ----------------------------------------------- *)

type sharing = {
  sh_nodes : int;
  sh_shared : int;
  sh_bytes : int;
  sh_per_production : (Psme_support.Sym.t * int * int) list;
}

(* Recomputed from the chains of the productions currently in the
   network, not from creation-time records: an excised production's
   nodes either disappeared with it or survive because a live chain
   runs through them — either way the excised production no longer
   owns anything. A node shared by several live chains is owned by the
   first of them in addition order (the chain that would have created
   it had the others never existed). *)
let sharing_report net =
  let owner = Hashtbl.create 64 in
  let uses = Hashtbl.create 64 in
  let prods = Network.productions net in
  List.iter
    (fun (pm : Network.pmeta) ->
      let name = pm.Network.meta_production.Psme_ops5.Production.name in
      List.iter
        (fun nid ->
          if Network.node_opt net nid <> None then begin
            if not (Hashtbl.mem owner nid) then Hashtbl.replace owner nid name;
            Hashtbl.replace uses nid
              (1 + Option.value ~default:0 (Hashtbl.find_opt uses nid))
          end)
        (List.sort_uniq compare pm.Network.chain))
    prods;
  let per =
    List.map
      (fun (pm : Network.pmeta) ->
        let name = pm.Network.meta_production.Psme_ops5.Production.name in
        let nodes = ref 0 and bytes = ref 0 in
        Hashtbl.iter
          (fun nid o ->
            if Psme_support.Sym.equal o name then begin
              incr nodes;
              match Network.node_opt net nid with
              | Some n -> bytes := !bytes + bytes_of_node net n
              | None -> ()
            end)
          owner;
        (name, !nodes, !bytes))
      prods
  in
  let sh_nodes = Hashtbl.length owner in
  let sh_shared =
    Hashtbl.fold (fun _ c acc -> if c > 1 then acc + 1 else acc) uses 0
  in
  let sh_bytes = List.fold_left (fun acc (_, _, b) -> acc + b) 0 per in
  { sh_nodes; sh_shared; sh_bytes; sh_per_production = per }

let bytes_per_two_input_node net (res : Build.add_result) =
  let total = ref 0 and count = ref 0 in
  List.iter
    (fun nid ->
      match Network.node_opt net nid with
      | None -> ()
      | Some n ->
      match n.Network.kind with
      | Network.Join _ | Network.Neg _ | Network.Ncc _ | Network.Bjoin _ ->
        total := !total + bytes_of_node net n;
        incr count
      | Network.Entry | Network.Ncc_partner _ | Network.Pnode _ -> ())
    res.Build.new_beta_nodes;
  if !count = 0 then nan else float_of_int !total /. float_of_int !count
