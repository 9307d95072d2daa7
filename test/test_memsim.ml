(* Tests for the memory simulator: first-fit heap, remember sets,
   the pairing heap and LRU. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let test_heap_basic () =
  let h = Memsim.Heap.create ~capacity:100 in
  checki "capacity" 100 (Memsim.Heap.capacity h);
  let a = Option.get (Memsim.Heap.alloc h 30) in
  let b = Option.get (Memsim.Heap.alloc h 30) in
  checki "first fit at 0" 0 a;
  checki "second after first" 30 b;
  checki "used" 60 (Memsim.Heap.used_bytes h);
  checki "free" 40 (Memsim.Heap.free_bytes h);
  checkb "no room for 50" true (Memsim.Heap.alloc h 50 = None);
  Memsim.Heap.free h a;
  checkb "freed space reusable" true (Memsim.Heap.alloc h 30 = Some 0)

let test_heap_coalescing () =
  let h = Memsim.Heap.create ~capacity:90 in
  let a = Option.get (Memsim.Heap.alloc h 30) in
  let b = Option.get (Memsim.Heap.alloc h 30) in
  let c = Option.get (Memsim.Heap.alloc h 30) in
  Memsim.Heap.free h a;
  Memsim.Heap.free h c;
  checki "largest hole before coalesce" 30 (Memsim.Heap.largest_free h);
  Memsim.Heap.free h b;
  checki "holes coalesce" 90 (Memsim.Heap.largest_free h);
  checkb "invariants" true (Memsim.Heap.check_invariants h = Ok ())

let test_heap_fragmentation_metric () =
  let h = Memsim.Heap.create ~capacity:100 in
  let a = Option.get (Memsim.Heap.alloc h 25) in
  let _b = Option.get (Memsim.Heap.alloc h 25) in
  let c = Option.get (Memsim.Heap.alloc h 25) in
  let _d = Option.get (Memsim.Heap.alloc h 25) in
  checkf "no free no frag" 0.0 (Memsim.Heap.external_fragmentation h);
  Memsim.Heap.free h a;
  Memsim.Heap.free h c;
  (* 50 free in two 25 holes: 1 - 25/50. *)
  checkf "two holes" 0.5 (Memsim.Heap.external_fragmentation h)

let test_heap_errors () =
  let h = Memsim.Heap.create ~capacity:10 in
  Alcotest.check_raises "free unallocated"
    (Invalid_argument "Memsim.Heap.free: offset 3 not live") (fun () ->
      Memsim.Heap.free h 3);
  Alcotest.check_raises "alloc zero"
    (Invalid_argument "Memsim.Heap.alloc: non-positive size") (fun () ->
      ignore (Memsim.Heap.alloc h 0));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Memsim.Heap.create") (fun () ->
      ignore (Memsim.Heap.create ~capacity:0))

let test_heap_size_of () =
  let h = Memsim.Heap.create ~capacity:50 in
  let a = Option.get (Memsim.Heap.alloc h 17) in
  checkb "size recorded" true (Memsim.Heap.size_of h a = Some 17);
  checkb "unknown offset" true (Memsim.Heap.size_of h 40 = None)

(* Random alloc/free sequences preserve the heap invariants. *)
let prop_heap_invariants =
  QCheck.Test.make ~count:300 ~name:"heap invariants under random ops"
    QCheck.(list (pair (int_range 1 40) bool))
    (fun ops ->
      let h = Memsim.Heap.create ~capacity:256 in
      let live = ref [] in
      List.iter
        (fun (size, do_free) ->
          if do_free && !live <> [] then begin
            match !live with
            | off :: rest ->
              Memsim.Heap.free h off;
              live := rest
            | [] -> ()
          end
          else
            match Memsim.Heap.alloc h size with
            | Some off -> live := !live @ [ off ]
            | None -> ())
        ops;
      Memsim.Heap.check_invariants h = Ok ()
      && Memsim.Heap.used_bytes h + Memsim.Heap.free_bytes h
         = Memsim.Heap.capacity h)

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)

let test_lru () =
  let l = Memsim.Lru.create () in
  Memsim.Lru.touch l 1 ~time:10;
  Memsim.Lru.touch l 2 ~time:20;
  Memsim.Lru.touch l 3 ~time:30;
  checki "cardinal" 3 (Memsim.Lru.cardinal l);
  checkb "victim is oldest" true (Memsim.Lru.victim l () = Some 1);
  Memsim.Lru.touch l 1 ~time:40;
  checkb "touch refreshes" true (Memsim.Lru.victim l () = Some 2);
  checkb "exclusion works" true
    (Memsim.Lru.victim l ~exclude:(fun b -> b = 2) () = Some 3);
  Memsim.Lru.remove l 2;
  checkb "removed not offered" true (Memsim.Lru.victim l () = Some 3);
  checkb "membership" true (Memsim.Lru.mem l 3 && not (Memsim.Lru.mem l 2));
  Alcotest.check
    Alcotest.(list (pair int int))
    "lru order" [ (3, 30); (1, 40) ] (Memsim.Lru.to_list l)

let test_lru_tie_break () =
  let l = Memsim.Lru.create () in
  Memsim.Lru.touch l 5 ~time:10;
  Memsim.Lru.touch l 3 ~time:10;
  checkb "tie broken by id" true (Memsim.Lru.victim l () = Some 3)

let test_lru_empty () =
  let l = Memsim.Lru.create () in
  checkb "no victim" true (Memsim.Lru.victim l () = None);
  checkb "all excluded" true
    (Memsim.Lru.touch l 1 ~time:1;
     Memsim.Lru.victim l ~exclude:(fun _ -> true) () = None)

(* Interleaved pushes and pops come out in the order a sorted list of
   the same pairs gives. *)
let prop_pairheap_order =
  QCheck.Test.make ~count:300 ~name:"pair heap pops in lexicographic order"
    QCheck.(
      list_of_size Gen.(0 -- 80)
        (option (pair (int_range 0 20) (int_range (-5) 5))))
    (fun ops ->
      let h = Memsim.Pairheap.create () and model = ref [] in
      List.for_all
        (function
          | Some (a, b) ->
            Memsim.Pairheap.push h a b;
            model := List.sort compare ((a, b) :: !model);
            true
          | None -> (
            match !model with
            | [] -> Memsim.Pairheap.is_empty h
            | (a, b) :: rest ->
              let top = (Memsim.Pairheap.min_fst h, Memsim.Pairheap.min_snd h) in
              Memsim.Pairheap.pop h;
              model := rest;
              top = (a, b)))
        ops
      && Memsim.Pairheap.is_empty h = (!model = []))

(* Random touch (times out of order, with ties), remove and victim
   sequences against a sorted-list model: after every operation the
   victim (with and without an exclusion set), the LRU order and the
   cardinality all match. *)
type lru_op = Touch of int * int | Remove of int | Victim of int list

let prop_lru_model =
  let block = QCheck.Gen.(frequency [ (4, 0 -- 9); (1, 0 -- 130) ]) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun b t -> Touch (b, t)) block (0 -- 12));
          (2, map (fun b -> Remove b) block);
          (2, map (fun ex -> Victim ex) (list_size (0 -- 4) block));
        ])
  in
  let show = function
    | Touch (b, t) -> Printf.sprintf "touch %d@%d" b t
    | Remove b -> Printf.sprintf "remove %d" b
    | Victim ex ->
      Printf.sprintf "victim -%s"
        (String.concat "," (List.map string_of_int ex))
  in
  QCheck.Test.make ~count:300 ~name:"lru = sorted-list model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show ops))
       QCheck.Gen.(list_size (0 -- 120) op))
    (fun ops ->
      let l = Memsim.Lru.create () and model = ref [] in
      let order () =
        List.sort
          (fun (b1, t1) (b2, t2) -> compare (t1, b1) (t2, b2))
          !model
      in
      let model_victim ex =
        List.find_map
          (fun (b, _) -> if List.mem b ex then None else Some b)
          (order ())
      in
      List.for_all
        (fun op ->
          let exclude =
            match op with
            | Touch (b, time) ->
              Memsim.Lru.touch l b ~time;
              model := (b, time) :: List.remove_assoc b !model;
              []
            | Remove b ->
              Memsim.Lru.remove l b;
              model := List.remove_assoc b !model;
              []
            | Victim ex -> ex
          in
          Memsim.Lru.victim l ~exclude:(fun b -> List.mem b exclude) ()
          = model_victim exclude
          && Memsim.Lru.victim l () = model_victim []
          && Memsim.Lru.to_list l = order ()
          && Memsim.Lru.cardinal l = List.length !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Remember sets                                                       *)

(* Random add, mem, remove and clear sequences on
   [Core.Engine.Remember] against one list per target, in recording
   order: after every operation each target's membership, count and
   order all match. An add of a site already present is skipped, as
   every caller checks [mem] first. *)
type remember_op =
  | Add of int * int
  | Mem of int * int
  | Remove of int * int
  | Clear of int

let prop_remember_model =
  let targets = 4 and sites = 12 in
  let op =
    QCheck.Gen.(
      let pair = pair (0 -- (targets - 1)) (0 -- (sites - 1)) in
      frequency
        [
          (6, map (fun (t, s) -> Add (t, s)) pair);
          (2, map (fun (t, s) -> Mem (t, s)) pair);
          (3, map (fun (t, s) -> Remove (t, s)) pair);
          (1, map (fun t -> Clear t) (0 -- (targets - 1)));
        ])
  in
  let show = function
    | Add (t, s) -> Printf.sprintf "add %d<-%d" t s
    | Mem (t, s) -> Printf.sprintf "mem %d<-%d" t s
    | Remove (t, s) -> Printf.sprintf "remove %d<-%d" t s
    | Clear t -> Printf.sprintf "clear %d" t
  in
  QCheck.Test.make ~count:300 ~name:"Core.Engine.Remember = list model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show ops))
       QCheck.Gen.(list_size (0 -- 150) op))
    (fun ops ->
      let module R = Core.Engine.Remember in
      let r = R.create ~blocks:targets and model = Array.make targets [] in
      let agrees target =
        let order = ref [] in
        R.iter (fun s -> order := s :: !order) r ~target;
        List.rev !order = model.(target)
        && R.length r ~target = List.length model.(target)
        && List.for_all
             (fun site -> R.mem r ~target ~site = List.mem site model.(target))
             (List.init sites Fun.id)
      in
      List.for_all
        (fun op ->
          let answered =
            match op with
            | Add (target, site) ->
              if not (R.mem r ~target ~site) then begin
                R.add r ~target ~site;
                model.(target) <- model.(target) @ [ site ]
              end;
              true
            | Mem (target, site) ->
              R.mem r ~target ~site = List.mem site model.(target)
            | Remove (target, site) ->
              R.remove r ~target ~site;
              model.(target) <- List.filter (( <> ) site) model.(target);
              true
            | Clear target ->
              R.clear r ~target;
              model.(target) <- [];
              true
          in
          answered && List.for_all agrees (List.init targets Fun.id))
        ops)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "memsim"
    [
      ( "heap",
        [
          Alcotest.test_case "basic alloc/free" `Quick test_heap_basic;
          Alcotest.test_case "coalescing" `Quick test_heap_coalescing;
          Alcotest.test_case "fragmentation metric" `Quick
            test_heap_fragmentation_metric;
          Alcotest.test_case "errors" `Quick test_heap_errors;
          Alcotest.test_case "size_of" `Quick test_heap_size_of;
          qcheck prop_heap_invariants;
        ] );
      ("remember", [ qcheck prop_remember_model ]);
      ("pairheap", [ qcheck prop_pairheap_order ]);
      ( "lru",
        [
          Alcotest.test_case "ordering" `Quick test_lru;
          Alcotest.test_case "tie break" `Quick test_lru_tie_break;
          Alcotest.test_case "empty" `Quick test_lru_empty;
          qcheck prop_lru_model;
        ] );
    ]
