type 'site t = {
  policy : Policy.t;
  emit : Sim.Events.t -> unit;
  now : unit -> int;
  keys : Memsim.Remember.t;  (* site keys, deduplicated *)
  key : 'site -> int;
  sites : 'site list array;  (* per target, most recent first *)
  due_buf : int array;  (* [due]'s hand-off: room for every block *)
}

let create ~policy ~blocks ?(emit = fun (_ : Sim.Events.t) -> ())
    ?(now = fun () -> 0) ~site_key () =
  if blocks < 1 then invalid_arg "Residency.Area.create: blocks must be >= 1";
  {
    policy;
    emit;
    now;
    keys = Memsim.Remember.create ~blocks;
    key = site_key;
    sites = Array.make blocks [];
    due_buf = Array.make blocks 0;
  }

let on_materialize t ~block ~step = Policy.on_materialize t.policy ~block ~step
let on_ready t ~block ~time = Policy.on_ready t.policy ~block ~time

let on_execute t ~block ~step ~time =
  Policy.on_execute t.policy ~block ~step ~time

let due t ~step = Policy.due t.policy ~step ~into:t.due_buf
let due_block t i = t.due_buf.(i)

let record_site t ~target ~site =
  Memsim.Remember.record t.keys ~target ~site:(t.key site)
  && begin
       t.sites.(target) <- site :: t.sites.(target);
       true
     end

let release t ~block ~patch_back =
  let n = ref 0 in
  let sites = List.rev t.sites.(block) in
  t.sites.(block) <- [];
  List.iter (fun s -> if patch_back s then incr n) sites;
  ignore (Memsim.Remember.flush t.keys ~target:block);
  Policy.on_release t.policy ~block;
  !n

let discard ?(wasted = false) t ~block ~patch_back =
  let patched_back = release t ~block ~patch_back in
  t.emit (Sim.Events.Discard { block; at = t.now (); patched_back; wasted });
  patched_back
