open Psme_support
open Psme_ops5

type left_entry = {
  l_token : Token.t;
  mutable l_refs : int;
  mutable l_count : int;
}

type right_payload =
  | R_wme of Wme.t
  | R_tok of Token.t

type l_item = { ln : int; lkh : int; entry : left_entry }
type r_item = { rn : int; rkh : int; payload : right_payload; mutable r_refs : int }

(* Each line stores its entries in one Vec (the line "population" the
   cost model charges a probe for), plus a secondary index mapping a
   bucket key — (node, khash) folded to an int — to the *ascending*
   positions of that bucket's entries in the Vec. Probes and iterations
   walk only their own bucket chain; iterating positions in ascending
   order visits entries in exactly the order the unindexed line scan
   did, so the serial engine's task schedule (and therefore its measured
   [scanned] stream) is unchanged.

   Key folding may collide two distinct (node, khash) pairs into one
   chain; every entry still carries its own [ln]/[lkh] and each probe
   re-checks them, so a collision only lengthens the chain. *)

type line = {
  lock : Mutex.t;
  left : l_item Vec.t;
  right : r_item Vec.t;
  (* allocated on first use: most lines of a fresh memory are never
     touched, and Network.create should stay cheap *)
  mutable lidx : (int, int Vec.t) Hashtbl.t option;
  mutable ridx : (int, int Vec.t) Hashtbl.t option;
  mutable left_accesses : int;  (* since last reset_cycle_stats *)
}

type t = {
  lines : line array;
  mask : int;
  hist : (int, int) Hashtbl.t;
  (* accesses-per-line-per-cycle [k] -> total left accesses on lines
     that saw [k] accesses that cycle (each line contributes k); see
     [access_histogram] in the interface *)
}

let bkey ~node ~khash = ((node * 0x9e3779b1) lxor khash) land max_int

(* --- ascending position lists ---------------------------------------- *)

let ivec_remove v x =
  let n = Vec.length v in
  let rec find i = if i >= n then -1 else if Vec.get v i = x then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then begin
    for j = i to n - 2 do
      Vec.set v j (Vec.get v (j + 1))
    done;
    ignore (Vec.pop v)
  end

let ivec_insert_sorted v x =
  Vec.push v x;
  let rec shift j =
    if j > 0 && Vec.get v (j - 1) > x then begin
      Vec.set v j (Vec.get v (j - 1));
      shift (j - 1)
    end
    else Vec.set v j x
  in
  shift (Vec.length v - 1)

(* The shared chain of a key with no entries. Never pushed to: every
   insertion looks its chain up with [Hashtbl.find] and creates a fresh
   one when the key is new. *)
let no_chain : int Vec.t = Vec.create ()

let idx_push idx key pos =
  match Hashtbl.find idx key with
  | v -> Vec.push v pos (* pos is the line's new maximum: stays ascending *)
  | exception Not_found ->
    (* most chains hold one entry (a join's right memory keys each wme
       by its own test values): start at capacity 1, not Vec's default
       8, so a one-entry chain takes 5 words instead of 12 *)
    let v = Vec.make 1 in
    Vec.push v pos;
    Hashtbl.replace idx key v

let idx_remove idx key pos =
  match Hashtbl.find idx key with
  | exception Not_found -> ()
  | v ->
    ivec_remove v pos;
    if Vec.is_empty v then Hashtbl.remove idx key

(* The ascending positions of a bucket's entries ([no_chain] when it has
   none). [Hashtbl.find] rather than [find_opt]: probes run on every
   activation and must not allocate. *)
let chain idx key =
  match idx with
  | None -> no_chain
  | Some h -> ( match Hashtbl.find h key with v -> v | exception Not_found -> no_chain)

(* Mirror Vec.swap_remove in the index: the removed entry's position
   disappears, and the entry moved down from the end re-registers at its
   new position (which must be re-sorted into its own chain). *)
let swap_remove_indexed vec oidx ~key_of i =
  let idx = match oidx with Some h -> h | None -> assert false in
  let n = Vec.length vec in
  idx_remove idx (key_of (Vec.get vec i)) i;
  if i < n - 1 then begin
    let v = Hashtbl.find idx (key_of (Vec.get vec (n - 1))) in
    ivec_remove v (n - 1);
    ivec_insert_sorted v i
  end;
  Vec.swap_remove vec i

let force_idx get set line =
  match get line with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 8 in
    set line h;
    h

let force_lidx line = force_idx (fun l -> l.lidx) (fun l h -> l.lidx <- Some h) line
let force_ridx line = force_idx (fun l -> l.ridx) (fun l h -> l.ridx <- Some h) line

let lkey_of (it : l_item) = bkey ~node:it.ln ~khash:it.lkh
let rkey_of (it : r_item) = bkey ~node:it.rn ~khash:it.rkh

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(lines = 512) () =
  let n = next_pow2 lines in
  {
    lines =
      Array.init n (fun _ ->
          { lock = Mutex.create (); left = Vec.create (); right = Vec.create ();
            lidx = None; ridx = None;
            left_accesses = 0 });
    mask = n - 1;
    hist = Hashtbl.create 64;
  }

let line_of t ~khash = khash land t.mask

let lock t ~line =
  let l = t.lines.(line) in
  let tm = Psme_obs.Telemetry.global in
  Psme_obs.Telemetry.incr_lock_acquired tm;
  if not (Mutex.try_lock l.lock) then begin
    (* Spin as the paper's processes do, counting attempts. *)
    Psme_obs.Telemetry.incr_lock_contended tm;
    let spun = ref 0 in
    while not (Mutex.try_lock l.lock) do
      incr spun;
      Domain.cpu_relax ()
    done;
    Psme_obs.Telemetry.add_lock_spins tm !spun
  end

let unlock t ~line = Mutex.unlock t.lines.(line).lock

let locked t ~line f =
  lock t ~line;
  match f () with
  | v ->
    unlock t ~line;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    unlock t ~line;
    Printexc.raise_with_backtrace e bt

let touch_left t line =
  let l = t.lines.(line) in
  l.left_accesses <- l.left_accesses + 1

(* Position of the first matching entry in ascending line order (-1 if
   none) — the same entry (and the same scan outcome) the full line scan
   used to find. A loop over locals, so a probe allocates nothing. *)
let find_left line ~node ~khash token =
  let ps = chain line.lidx (bkey ~node ~khash) in
  let n = Vec.length ps in
  let found = ref (-1) in
  let j = ref 0 in
  while !found < 0 && !j < n do
    let i = Vec.unsafe_get ps !j in
    let item = Vec.unsafe_get line.left i in
    if item.ln = node && item.lkh = khash && Token.equal item.entry.l_token token then
      found := i;
    incr j
  done;
  !found

let left_push line ~node ~khash entry =
  Vec.push line.left { ln = node; lkh = khash; entry };
  idx_push (force_lidx line) (bkey ~node ~khash) (Vec.length line.left - 1)

let left_swap_remove line i = swap_remove_indexed line.left line.lidx ~key_of:lkey_of i

let left_add t ~node ~khash token ~count =
  let line = line_of t ~khash in
  touch_left t line;
  let l = t.lines.(line) in
  let i = find_left l ~node ~khash token in
  if i >= 0 then begin
    let entry = (Vec.unsafe_get l.left i).entry in
    entry.l_refs <- entry.l_refs + 1;
    if entry.l_refs = 0 then begin
      (* annihilated an early delete *)
      left_swap_remove l i;
      `Inert
    end
    else if entry.l_refs = 1 then `Activated entry
    else `Inert
  end
  else begin
    let entry = { l_token = token; l_refs = 1; l_count = count } in
    left_push l ~node ~khash entry;
    `Activated entry
  end

let left_remove t ~node ~khash token =
  let line = line_of t ~khash in
  touch_left t line;
  let l = t.lines.(line) in
  let i = find_left l ~node ~khash token in
  if i >= 0 then begin
    let entry = (Vec.unsafe_get l.left i).entry in
    entry.l_refs <- entry.l_refs - 1;
    if entry.l_refs = 0 then begin
      left_swap_remove l i;
      `Deactivated entry
    end
    else `Inert
  end
  else begin
    (* early delete: leave a tombstone for the add to annihilate *)
    left_push l ~node ~khash { l_token = token; l_refs = -1; l_count = 0 };
    `Inert
  end

(* Index positions mirror swap_remove in lockstep, so they are always
   < length under the line lock: the unsafe_gets below are in bounds.
   The step function receives two environment values so callers can
   pass a closed function and scan without allocating. *)
let left_fold t ~node ~khash f a b init =
  let line = line_of t ~khash in
  touch_left t line;
  let l = t.lines.(line) in
  let ps = chain l.lidx (bkey ~node ~khash) in
  let acc = ref init in
  for j = 0 to Vec.length ps - 1 do
    let item = Vec.unsafe_get l.left (Vec.unsafe_get ps j) in
    if item.ln = node && item.lkh = khash && item.entry.l_refs >= 1 then
      acc := f a b !acc item.entry
  done;
  !acc

(* the cost model charges for the whole line (the paper's hash-bucket
   scan); only the bucket chain is actually walked *)
let left_length t ~line = Vec.length t.lines.(line).left
let right_length t ~line = Vec.length t.lines.(line).right

(* [*_iter] as a fold: the callback rides in the first environment slot *)
let apply_step f () () x = f x

let left_iter t ~node ~khash f =
  left_fold t ~node ~khash apply_step f () ();
  left_length t ~line:(line_of t ~khash)

let payload_equal a b =
  match a, b with
  | R_wme x, R_wme y -> Wme.equal x y
  | R_tok x, R_tok y -> Token.equal x y
  | (R_wme _ | R_tok _), _ -> false

let find_right line ~node ~khash payload =
  let ps = chain line.ridx (bkey ~node ~khash) in
  let n = Vec.length ps in
  let found = ref (-1) in
  let j = ref 0 in
  while !found < 0 && !j < n do
    let i = Vec.unsafe_get ps !j in
    let item = Vec.unsafe_get line.right i in
    if item.rn = node && item.rkh = khash && payload_equal item.payload payload then
      found := i;
    incr j
  done;
  !found

let right_push line ~node ~khash payload ~refs =
  Vec.push line.right { rn = node; rkh = khash; payload; r_refs = refs };
  idx_push (force_ridx line) (bkey ~node ~khash) (Vec.length line.right - 1)

let right_swap_remove line i = swap_remove_indexed line.right line.ridx ~key_of:rkey_of i

let right_add t ~node ~khash payload =
  let line = line_of t ~khash in
  let l = t.lines.(line) in
  let i = find_right l ~node ~khash payload in
  if i >= 0 then begin
    let item = Vec.unsafe_get l.right i in
    item.r_refs <- item.r_refs + 1;
    if item.r_refs = 0 then begin
      right_swap_remove l i;
      false
    end
    else item.r_refs = 1
  end
  else begin
    right_push l ~node ~khash payload ~refs:1;
    true
  end

let right_remove t ~node ~khash payload =
  let line = line_of t ~khash in
  let l = t.lines.(line) in
  let i = find_right l ~node ~khash payload in
  if i >= 0 then begin
    let item = Vec.unsafe_get l.right i in
    item.r_refs <- item.r_refs - 1;
    if item.r_refs = 0 then begin
      right_swap_remove l i;
      true
    end
    else false
  end
  else begin
    right_push l ~node ~khash payload ~refs:(-1);
    false
  end

let right_fold t ~node ~khash f a b init =
  let line = line_of t ~khash in
  let l = t.lines.(line) in
  let ps = chain l.ridx (bkey ~node ~khash) in
  let acc = ref init in
  for j = 0 to Vec.length ps - 1 do
    let item = Vec.unsafe_get l.right (Vec.unsafe_get ps j) in
    if item.rn = node && item.rkh = khash && item.r_refs >= 1 then
      acc := f a b !acc item.payload
  done;
  !acc

let right_iter t ~node ~khash f =
  right_fold t ~node ~khash apply_step f () ();
  right_length t ~line:(line_of t ~khash)

let drop_node t ~node =
  Array.iter
    (fun line ->
      Mutex.protect line.lock (fun () ->
          let rec purge_left i =
            if i < Vec.length line.left then
              if (Vec.get line.left i).ln = node then begin
                left_swap_remove line i;
                purge_left i
              end
              else purge_left (i + 1)
          in
          purge_left 0;
          let rec purge_right i =
            if i < Vec.length line.right then
              if (Vec.get line.right i).rn = node then begin
                right_swap_remove line i;
                purge_right i
              end
              else purge_right (i + 1)
          in
          purge_right 0))
    t.lines

let iter_node_left t ~node f =
  Array.iter
    (fun line ->
      Mutex.protect line.lock (fun () ->
          Vec.iter
            (fun item -> if item.ln = node && item.entry.l_refs >= 1 then f item.entry)
            line.left))
    t.lines

let iter_node_right t ~node f =
  Array.iter
    (fun line ->
      Mutex.protect line.lock (fun () ->
          Vec.iter
            (fun item -> if item.rn = node && item.r_refs >= 1 then f item.payload)
            line.right))
    t.lines

let fold_left_entries t ~init ~f =
  Array.fold_left
    (fun acc line ->
      Mutex.protect line.lock (fun () ->
          Vec.fold
            (fun acc item -> f acc ~node:item.ln ~khash:item.lkh item.entry)
            acc line.left))
    init t.lines

let fold_right_entries t ~init ~f =
  Array.fold_left
    (fun acc line ->
      Mutex.protect line.lock (fun () ->
          Vec.fold
            (fun acc item ->
              f acc ~node:item.rn ~khash:item.rkh ~refs:item.r_refs item.payload)
            acc line.right))
    init t.lines

let reset_cycle_stats t =
  Array.iter
    (fun line ->
      if line.left_accesses > 0 then begin
        let k = line.left_accesses in
        (* each of the line's k accesses was one left token arriving at a
           line with k accesses this cycle: weight the bin by k *)
        let prev = Option.value ~default:0 (Hashtbl.find_opt t.hist k) in
        Hashtbl.replace t.hist k (prev + k);
        line.left_accesses <- 0
      end)
    t.lines

let access_histogram t =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.hist []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let clear_access_histogram t = Hashtbl.reset t.hist

let left_accesses_per_line t = Array.map (fun line -> line.left_accesses) t.lines

let total_left_accesses t =
  Hashtbl.fold (fun _ n acc -> acc + n) t.hist 0
  + Array.fold_left (fun acc line -> acc + line.left_accesses) 0 t.lines
