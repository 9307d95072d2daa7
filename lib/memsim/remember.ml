(* Remember sets are tiny (a handful of branch sites per target), so
   each one is an int array in recording order plus a count:
   membership is a short scan over immediates, recording a site is one
   store, and a set's array is reused after a flush — nothing is
   allocated once every set has grown to its high-water mark. *)

type t = {
  sites : int array array;  (* per target: [counts.(t)] live entries *)
  counts : int array;
}

let create ~blocks =
  if blocks <= 0 then invalid_arg "Memsim.Remember.create";
  { sites = Array.make blocks [||]; counts = Array.make blocks 0 }

let rec index (a : int array) n x i =
  if i >= n then -1
  else if Array.unsafe_get a i = x then i
  else index a n x (i + 1)

let record t ~target ~site =
  let a = t.sites.(target) and n = t.counts.(target) in
  if index a n site 0 >= 0 then false
  else begin
    let a =
      if n < Array.length a then a
      else begin
        let grown = Array.make (max 4 (2 * n)) 0 in
        Array.blit a 0 grown 0 n;
        t.sites.(target) <- grown;
        grown
      end
    in
    a.(n) <- site;
    t.counts.(target) <- n + 1;
    true
  end

let sites t ~target =
  let live = Array.sub t.sites.(target) 0 t.counts.(target) in
  List.sort compare (Array.to_list live)

let cardinal t ~target = t.counts.(target)

let flush t ~target =
  let n = t.counts.(target) in
  t.counts.(target) <- 0;
  n

let total_sites t = Array.fold_left ( + ) 0 t.counts
