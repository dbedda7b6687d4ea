type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  heap : 'a entry Vec.t;
  mutable next_seq : int;
}

let create () = { heap = Vec.create (); next_seq = 0 }

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let add t ~time payload =
  let e = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  Vec.push t.heap e;
  (* Sift up. *)
  let i = ref (Vec.length t.heap - 1) in
  while !i > 0 do
    let parent = (!i - 1) / 2 in
    let pe = Vec.get t.heap parent and ce = Vec.get t.heap !i in
    if before ce pe then begin
      Vec.set t.heap parent ce;
      Vec.set t.heap !i pe;
      i := parent
    end else i := 0
  done

let pop t =
  let n = Vec.length t.heap in
  if n = 0 then None
  else begin
    let top = Vec.get t.heap 0 in
    let last = Vec.get t.heap (n - 1) in
    ignore (Vec.pop t.heap);
    if n > 1 then begin
      Vec.set t.heap 0 last;
      (* Sift down. *)
      let n = n - 1 in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < n && before (Vec.get t.heap l) (Vec.get t.heap !smallest) then smallest := l;
        if r < n && before (Vec.get t.heap r) (Vec.get t.heap !smallest) then smallest := r;
        if !smallest <> !i then begin
          let a = Vec.get t.heap !i and b = Vec.get t.heap !smallest in
          Vec.set t.heap !i b;
          Vec.set t.heap !smallest a;
          i := !smallest
        end else continue := false
      done
    end;
    Some (top.time, top.payload)
  end

let length t = Vec.length t.heap
let is_empty t = Vec.is_empty t.heap
let clear t = Vec.clear t.heap
