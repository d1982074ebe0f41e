type decision = { d_drop : bool; d_dup : int; d_jitter : float }

let no_fault = { d_drop = false; d_dup = 0; d_jitter = 0.0 }

type policy = { decide : unit -> decision; reorder : bool }

type 'a t = {
  engine : Engine.t;
  delay : float;
  handler : 'a -> unit;
  mutable last_delivery : float;
  mutable up : bool;
  mutable policy : policy option;
  mutable sent : int;
  mutable scheduled : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
}

let create engine ~delay handler =
  if delay < 0.0 then invalid_arg "Channel.create: negative delay";
  {
    engine;
    delay;
    handler;
    last_delivery = neg_infinity;
    up = true;
    policy = None;
    sent = 0;
    scheduled = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
  }

let set_policy t policy = t.policy <- policy
let set_link t ~up = t.up <- up

let deliver t ~reorder ~jitter msg =
  let jitter = Float.max 0.0 jitter in
  let raw = Engine.now t.engine +. t.delay +. jitter in
  let arrival = if reorder then raw else Float.max raw t.last_delivery in
  t.last_delivery <- Float.max t.last_delivery arrival;
  t.scheduled <- t.scheduled + 1;
  Engine.schedule_at t.engine ~time:arrival (fun () ->
      t.delivered <- t.delivered + 1;
      t.handler msg)

let send t msg =
  t.sent <- t.sent + 1;
  if not t.up then t.dropped <- t.dropped + 1
  else
    match t.policy with
    | None -> deliver t ~reorder:false ~jitter:0.0 msg
    | Some p ->
      let d = p.decide () in
      if d.d_drop then t.dropped <- t.dropped + 1
      else begin
        deliver t ~reorder:p.reorder ~jitter:d.d_jitter msg;
        (* each duplicate draws its own jitter (drop/dup of the extra
           copies is ignored: duplication is bounded by the original
           decision) *)
        for _ = 1 to d.d_dup do
          t.duplicated <- t.duplicated + 1;
          let j = (p.decide ()).d_jitter in
          deliver t ~reorder:p.reorder ~jitter:j msg
        done
      end

let delay t = t.delay
let sent_count t = t.sent
let delivered_count t = t.delivered
let dropped_count t = t.dropped
let duplicated_count t = t.duplicated
let in_flight t = t.scheduled - t.delivered
