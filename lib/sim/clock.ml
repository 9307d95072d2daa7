type t = { mutable now : int }

let create () = { now = 0 }
let now t = t.now

let advance t ~cycles =
  if cycles < 0 then invalid_arg "Sim.Clock.advance: negative cycles";
  t.now <- t.now + cycles

let wait_until t time =
  if time > t.now then begin
    let waited = time - t.now in
    t.now <- time;
    waited
  end
  else 0

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
