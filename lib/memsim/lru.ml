(* Block ids are small dense ints, so the state lives in growable
   arrays indexed by block: each tracked block's last-use time and its
   neighbours in a doubly linked recency list sorted by (time, block),
   oldest first. A touch unlinks the block and walks back from the
   newest end to its place — one step when times grow, as they almost
   always do — and a victim search walks forward from the oldest end
   past the excluded blocks, instead of scanning every slot. *)

let absent = min_int
let nil = -1

type t = {
  mutable time_of : int array;  (* [absent] = not tracked *)
  mutable older : int array;  (* neighbour towards [oldest]; [nil] at the end *)
  mutable newer : int array;  (* neighbour towards [newest]; [nil] at the end *)
  mutable oldest : int;  (* [nil] when empty *)
  mutable newest : int;
  mutable tracked : int;
}

let create () =
  {
    time_of = Array.make 64 absent;
    older = Array.make 64 nil;
    newer = Array.make 64 nil;
    oldest = nil;
    newest = nil;
    tracked = 0;
  }

let grow a cap fill =
  let g = Array.make cap fill in
  Array.blit a 0 g 0 (Array.length a);
  g

let ensure t b =
  if b < 0 then invalid_arg "Memsim.Lru: negative block id";
  let n = Array.length t.time_of in
  if b >= n then begin
    let cap = ref (2 * n) in
    while b >= !cap do
      cap := 2 * !cap
    done;
    t.time_of <- grow t.time_of !cap absent;
    t.older <- grow t.older !cap nil;
    t.newer <- grow t.newer !cap nil
  end

let unlink t b =
  let o = t.older.(b) and n = t.newer.(b) in
  if o = nil then t.oldest <- n else t.newer.(o) <- n;
  if n = nil then t.newest <- o else t.older.(n) <- o

(* The newest tracked block ordered at or before ([time], [b]), or
   [nil] if [b] goes first. *)
let rec place t ~time b p =
  if p = nil then nil
  else
    let tp = t.time_of.(p) in
    if tp < time || (tp = time && p < b) then p
    else place t ~time b t.older.(p)

let touch t b ~time =
  ensure t b;
  if t.time_of.(b) = absent then t.tracked <- t.tracked + 1 else unlink t b;
  t.time_of.(b) <- time;
  let o = place t ~time b t.newest in
  let n = if o = nil then t.oldest else t.newer.(o) in
  t.older.(b) <- o;
  t.newer.(b) <- n;
  if o = nil then t.oldest <- b else t.newer.(o) <- b;
  if n = nil then t.newest <- b else t.older.(n) <- b

let mem t b = b >= 0 && b < Array.length t.time_of && t.time_of.(b) <> absent

let remove t b =
  if mem t b then begin
    unlink t b;
    t.time_of.(b) <- absent;
    t.tracked <- t.tracked - 1
  end

let cardinal t = t.tracked

(* Top level, not a closure over [t] and [exclude]: a victim search
   allocates nothing but its answer. *)
let rec first t exclude b =
  if b = nil then None
  else if exclude b then first t exclude t.newer.(b)
  else Some b

let victim t ?(exclude = fun _ -> false) () = first t exclude t.oldest

let to_list t =
  let rec collect b acc =
    if b = nil then acc else collect t.older.(b) ((b, t.time_of.(b)) :: acc)
  in
  collect t.newest []
