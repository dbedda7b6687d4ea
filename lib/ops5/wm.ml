type change =
  | Add of Wme.t
  | Remove of Wme.t

(* Wmes keyed by contents. A key usually has one binding; when equal
   contents are present more than once (OPS5 allows it) the bindings
   stack, most recently added first. *)
module Contents = Hashtbl.Make (struct
  type t = Wme.t

  let equal = Wme.same_contents
  let hash = Wme.hash
end)

type t = {
  mutable next_tag : int;
  by_tag : (int, Wme.t) Hashtbl.t;
  by_contents : Wme.t Contents.t;
}

let create () =
  { next_tag = 1; by_tag = Hashtbl.create 256; by_contents = Contents.create 256 }

let add t ~cls ~fields =
  let w = Wme.make ~cls ~fields ~timetag:t.next_tag in
  t.next_tag <- t.next_tag + 1;
  Hashtbl.replace t.by_tag w.Wme.timetag w;
  Contents.add t.by_contents w w;
  w

(* [Contents.remove] drops the most recent binding of a key. That is [w]
   unless its contents are present more than once; then the key's
   bindings are rebuilt without [w], keeping their order. *)
let remove_contents t w =
  if Wme.equal (Contents.find t.by_contents w) w then Contents.remove t.by_contents w
  else begin
    let others = List.filter (fun x -> not (Wme.equal x w)) (Contents.find_all t.by_contents w) in
    List.iter (fun _ -> Contents.remove t.by_contents w) (w :: others);
    List.iter (fun x -> Contents.add t.by_contents x x) (List.rev others)
  end

let remove t w =
  if not (Hashtbl.mem t.by_tag w.Wme.timetag) then raise Not_found;
  Hashtbl.remove t.by_tag w.Wme.timetag;
  remove_contents t w

let last_timetag t = t.next_tag - 1
let mem t w = Hashtbl.mem t.by_tag w.Wme.timetag
let size t = Hashtbl.length t.by_tag
let iter f t = Hashtbl.iter (fun _ w -> f w) t.by_tag

let to_list t =
  Hashtbl.fold (fun _ w acc -> w :: acc) t.by_tag []
  |> List.sort Wme.compare

let find_same_contents t ~cls ~fields =
  Contents.find_opt t.by_contents (Wme.make ~cls ~fields ~timetag:0)

let pp schema ppf t =
  List.iter (fun w -> Format.fprintf ppf "%a@." (Wme.pp schema) w) (to_list t)
