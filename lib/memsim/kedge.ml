(* Pending due entries are (due step, block) pairs, never updated in
   place: a re-track just queues a new entry, and [due_into] drops stale
   ones (an entry is live only while its block's current [base + k]
   still lands on the entry's step).

   They wait in a hashed timing wheel: an entry due at step [d] sits in
   bucket [d land mask], so a track is a store at the end of a bucket
   and a due check scans the one bucket of its step. The wheel is sized
   above the uniform k, so with every block on it that bucket holds
   just the step's own entries; a block with a larger per-block k
   rides whole turns of the wheel, and each scan drops whatever went
   stale. No ordering of the calls is assumed, and nothing depends on
   how many distinct k values there are. *)

type t = {
  k : int;
  k_of : int -> int;
  base : int array;  (* step of last reset; -1 = untracked *)
  mask : int;  (* wheel size - 1, the size a power of two *)
  wheel : int array array;  (* per bucket: due, block, due, block, ... *)
  fill : int array;  (* ints in use per bucket *)
}

(* The smallest power of two above [k], within [8, 1024]: a huge k
   ("never compress") must not cost a huge wheel. *)
let rec wheel_size k w = if w > k || w >= 1024 then w else wheel_size k (2 * w)

let create ?k_of ~blocks ~k () =
  if k < 1 then invalid_arg "Memsim.Kedge.create: k must be >= 1";
  if blocks < 1 then invalid_arg "Memsim.Kedge.create: blocks must be >= 1";
  let k_of =
    match k_of with
    | None -> fun _ -> k
    | Some f ->
      fun b ->
        let kb = f b in
        if kb < 1 then invalid_arg "Memsim.Kedge: per-block k must be >= 1"
        else kb
  in
  let w = wheel_size k 8 in
  {
    k;
    k_of;
    base = Array.make blocks (-1);
    mask = w - 1;
    wheel = Array.make w [||];
    fill = Array.make w 0;
  }

let k t = t.k
let k_for t ~block = t.k_of block

let push t due block =
  let i = due land t.mask in
  let n = t.fill.(i) in
  let bucket =
    let bucket = t.wheel.(i) in
    if n < Array.length bucket then bucket
    else begin
      let grown = Array.make (max 8 (2 * n)) 0 in
      Array.blit bucket 0 grown 0 n;
      t.wheel.(i) <- grown;
      grown
    end
  in
  bucket.(n) <- due;
  bucket.(n + 1) <- block;
  t.fill.(i) <- n + 2

let track t ~block ~step =
  t.base.(block) <- step;
  let kb = t.k_of block in
  (* Guard against overflow for "never compress" style huge k. *)
  if kb <= max_int - step then push t (step + kb) block

let untrack t ~block = t.base.(block) <- -1
let tracked t ~block = t.base.(block) >= 0

let counter t ~block ~step =
  let base = t.base.(block) in
  if base < 0 then None else Some (step - base)

(* Adds [b] to the sorted, duplicate-free prefix [into.(0 .. n-1)] and
   returns its new length. Due sets are a handful of blocks, so
   inserting in place beats collecting and sorting. *)
let rec position (into : int array) n b i =
  if i < n && into.(i) < b then position into n b (i + 1) else i

let insert_unique into n b =
  let i = position into n b 0 in
  if i < n && into.(i) = b then n
  else begin
    Array.blit into i into (i + 1) (n - i);
    into.(i) <- b;
    n + 1
  end

(* Scans bucket [i] from entry [j] on at [step]: a live entry due now
   joins [into], a live one due on a later turn moves down to slot
   [kept], and a stale one (its block reset or untracked since, or its
   step already past) is dropped. Stores the bucket's new fill and
   returns the due count. *)
let rec scan t step (bucket : int array) i len j kept into n =
  if j = len then begin
    t.fill.(i) <- kept;
    n
  end
  else begin
    let d = bucket.(j) and b = bucket.(j + 1) in
    let base = t.base.(b) in
    if d < step || base < 0 || base + t.k_of b <> d then
      scan t step bucket i len (j + 2) kept into n
    else if d = step then
      scan t step bucket i len (j + 2) kept into (insert_unique into n b)
    else begin
      bucket.(kept) <- d;
      bucket.(kept + 1) <- b;
      scan t step bucket i len (j + 2) (kept + 2) into n
    end
  end

let due_into t ~step ~into =
  let i = step land t.mask in
  scan t step t.wheel.(i) i t.fill.(i) 0 0 into 0
