(* How a host's sites are stored beside their int keys. The timing
   model's site is a block id — its own key — so it keeps nothing
   else; the runtime's sites are (copy, slot) pairs, kept in payload
   lists, most recent first. *)
type _ sites =
  | Keys : int sites
  | Payloads : {
      key : 'site -> int;
      lists : 'site list array;
    }
      -> 'site sites

type 'site t = {
  policy : Policy.t;
  emit : Sim.Events.t -> unit;
  now : unit -> int;
  keys : Memsim.Remember.t;  (* site keys, deduplicated *)
  sites : 'site sites;
  due_buf : int array;  (* [due]'s hand-off: room for every block *)
}

let make ~policy ~blocks ~emit ~now sites =
  if blocks < 1 then invalid_arg "Residency.Area.create: blocks must be >= 1";
  {
    policy;
    emit;
    now;
    keys = Memsim.Remember.create ~blocks;
    sites;
    due_buf = Array.make blocks 0;
  }

let create ~policy ~blocks ?(emit = fun (_ : Sim.Events.t) -> ())
    ?(now = fun () -> 0) ~site_key () =
  make ~policy ~blocks ~emit ~now
    (Payloads { key = site_key; lists = Array.make (max blocks 0) [] })

let create_keyed ~policy ~blocks ?(emit = fun (_ : Sim.Events.t) -> ())
    ?(now = fun () -> 0) () =
  make ~policy ~blocks ~emit ~now Keys

let on_materialize t ~block ~step = Policy.on_materialize t.policy ~block ~step
let on_ready t ~block ~time = Policy.on_ready t.policy ~block ~time

let on_execute t ~block ~step ~time =
  Policy.on_execute t.policy ~block ~step ~time

let rearm t ~block ~step = Policy.rearm t.policy ~block ~step
let due t ~step = Policy.due t.policy ~step ~into:t.due_buf
let due_block t i = t.due_buf.(i)
let victim t ~exclude = Policy.victim t.policy ~exclude

let record_site (type s) (t : s t) ~target ~(site : s) =
  match t.sites with
  | Keys -> Memsim.Remember.record t.keys ~target ~site
  | Payloads p ->
    Memsim.Remember.record t.keys ~target ~site:(p.key site)
    && begin
         p.lists.(target) <- site :: p.lists.(target);
         true
       end

let rec remove_payload key k = function
  | [] -> []
  | s :: tl -> if key s = k then tl else s :: remove_payload key k tl

let forget_key (type s) (t : s t) ~target ~key =
  if Memsim.Remember.remove_site t.keys ~target ~site:key then begin
    (match t.sites with
    | Keys -> ()
    | Payloads p ->
      p.lists.(target) <- remove_payload p.key key p.lists.(target));
    1
  end
  else 0

let release_count (type s) (t : s t) ~block =
  (match t.sites with Keys -> () | Payloads p -> p.lists.(block) <- []);
  let n = Memsim.Remember.flush t.keys ~target:block in
  Policy.on_release t.policy ~block;
  n

let release (type s) (t : s t) ~block ~(patch_back : s -> bool) =
  let n = ref 0 in
  let patch s = if patch_back s then incr n in
  (match t.sites with
  | Keys -> Memsim.Remember.iter t.keys ~target:block patch
  | Payloads p ->
    let sites = List.rev p.lists.(block) in
    p.lists.(block) <- [];
    List.iter patch sites);
  ignore (Memsim.Remember.flush t.keys ~target:block);
  Policy.on_release t.policy ~block;
  !n

let discard ?(wasted = false) t ~block ~patch_back =
  let patched_back = release t ~block ~patch_back in
  t.emit (Sim.Events.Discard { block; at = t.now (); patched_back; wasted });
  patched_back
