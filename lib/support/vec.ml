type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }
let make capacity = { data = [||]; len = 0 } |> fun t ->
  if capacity > 0 then t.data <- Array.make capacity (Obj.magic 0);
  t

let length t = t.len
let is_empty t = t.len = 0

let ensure t n =
  let cap = Array.length t.data in
  if n > cap then begin
    let cap' = max 8 (max n (2 * cap)) in
    let data' = Array.make cap' (Obj.magic 0) in
    Array.blit t.data 0 data' 0 t.len;
    t.data <- data'
  end

let push t x =
  ensure t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    let x = t.data.(t.len) in
    t.data.(t.len) <- Obj.magic 0;
    Some x
  end

let pop_exn t =
  if t.len = 0 then invalid_arg "Vec.pop_exn";
  t.len <- t.len - 1;
  let x = t.data.(t.len) in
  t.data.(t.len) <- Obj.magic 0;
  x

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let[@inline] unsafe_get t i = Array.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.data.(i) <- x

let clear t =
  Array.fill t.data 0 t.len (Obj.magic 0);
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do f t.data.(i) done

let iteri f t =
  for i = 0 to t.len - 1 do f i t.data.(i) done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do acc := f !acc t.data.(i) done;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []

let to_array t = Array.sub t.data 0 t.len

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t

let last t = if t.len = 0 then None else Some t.data.(t.len - 1)

let swap_remove t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.swap_remove";
  t.len <- t.len - 1;
  t.data.(i) <- t.data.(t.len);
  t.data.(t.len) <- Obj.magic 0
