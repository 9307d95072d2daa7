type resource = { mutable free_at : int; mutable busy : int }

let resource () = { free_at = 0; busy = 0 }

let schedule r ~now ~cycles =
  let start = if now >= r.free_at then now else r.free_at in
  r.free_at <- start + cycles;
  r.busy <- r.busy + cycles;
  r.free_at

let push_back r ~now ~cycles =
  r.free_at <- (if r.free_at >= now then r.free_at else now) + cycles;
  r.busy <- r.busy + cycles

let free_at r = r.free_at
let busy_cycles r = r.busy
