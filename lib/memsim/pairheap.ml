(* Two parallel int arrays laid out as a binary heap; [fst]/[snd] hold
   each entry's two components. Comparisons are on ints only, so no
   polymorphic compare runs and nothing is boxed. *)

type t = {
  mutable fst : int array;
  mutable snd : int array;
  mutable size : int;
}

let create () = { fst = Array.make 16 0; snd = Array.make 16 0; size = 0 }
let is_empty t = t.size = 0
let min_fst t = t.fst.(0)
let min_snd t = t.snd.(0)

let[@inline] less (a : int) (b : int) (c : int) (d : int) =
  a < c || (a = c && b < d)

(* Typed [int array] so the swaps are plain int moves, not generic
   array accesses with a write barrier. *)
let[@inline] swap (fst : int array) (snd : int array) i j =
  let a = Array.unsafe_get fst i and b = Array.unsafe_get snd i in
  Array.unsafe_set fst i (Array.unsafe_get fst j);
  Array.unsafe_set snd i (Array.unsafe_get snd j);
  Array.unsafe_set fst j a;
  Array.unsafe_set snd j b

let rec sift_up fst snd i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if
      less (Array.unsafe_get fst i) (Array.unsafe_get snd i)
        (Array.unsafe_get fst p) (Array.unsafe_get snd p)
    then begin
      swap fst snd i p;
      sift_up fst snd p
    end
  end

let rec sift_down fst snd n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let s =
      if
        less (Array.unsafe_get fst l) (Array.unsafe_get snd l)
          (Array.unsafe_get fst i) (Array.unsafe_get snd i)
      then l
      else i
    in
    let r = l + 1 in
    let s =
      if
        r < n
        && less (Array.unsafe_get fst r) (Array.unsafe_get snd r)
             (Array.unsafe_get fst s) (Array.unsafe_get snd s)
      then r
      else s
    in
    if s <> i then begin
      swap fst snd i s;
      sift_down fst snd n s
    end
  end

let push t a b =
  let n = t.size in
  if n = Array.length t.fst then begin
    let fst = Array.make (2 * n) 0 and snd = Array.make (2 * n) 0 in
    Array.blit t.fst 0 fst 0 n;
    Array.blit t.snd 0 snd 0 n;
    t.fst <- fst;
    t.snd <- snd
  end;
  Array.unsafe_set t.fst n a;
  Array.unsafe_set t.snd n b;
  t.size <- n + 1;
  sift_up t.fst t.snd n

let pop t =
  if t.size = 0 then invalid_arg "Memsim.Pairheap.pop: empty heap";
  let n = t.size - 1 in
  t.fst.(0) <- t.fst.(n);
  t.snd.(0) <- t.snd.(n);
  t.size <- n;
  sift_down t.fst t.snd n 0
