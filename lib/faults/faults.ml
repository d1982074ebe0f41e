open Sim
open Sources

type profile = {
  p_name : string;
  p_drop : float;
  p_dup : float;
  p_jitter : float;
  p_reorder : bool;
  p_outage : (float * float) list;
  p_outage_mode : Source_db.outage_mode;
}

let none =
  {
    p_name = "none";
    p_drop = 0.0;
    p_dup = 0.0;
    p_jitter = 0.0;
    p_reorder = false;
    p_outage = [];
    p_outage_mode = Source_db.Refuse;
  }

(* Delay jitter only: stresses timing assumptions (flush ticks racing
   deliveries) while the FIFO clamp still preserves order, so no
   recovery machinery should ever fire. *)
let jitter = { none with p_name = "jitter"; p_jitter = 0.8 }

(* Message loss: dropped announcements leave gaps the mediator must
   detect (prev_version) and repair by leaf resync. *)
let drop = { none with p_name = "drop"; p_drop = 0.2; p_jitter = 0.2 }

(* Message duplication: replayed announcements must be discarded by
   version monotonicity, duplicated answers by the ivar guard. *)
let dup = { none with p_name = "dup"; p_dup = 0.3; p_jitter = 0.2 }

(* The source refuses polls inside the outage windows (fractions of
   the fault window, see [apply]): exercises retry/backoff and, when
   the budget runs out, degraded stale answers. *)
let outage =
  {
    none with
    p_name = "outage";
    p_outage = [ (0.0, 0.45); (0.6, 0.9) ];
    p_outage_mode = Source_db.Refuse;
  }

(* Like [outage] but the request silently vanishes: only per-poll
   timeouts reveal the failure. *)
let blackhole =
  {
    none with
    p_name = "blackhole";
    p_outage = [ (0.1, 0.55) ];
    p_outage_mode = Source_db.Black_hole;
  }

(* Jitter with the FIFO clamp off: answers can overtake announcements
   and vice versa, invalidating the ECA baseline — the desync check
   must catch it and trigger resync. Relaxes the paper's Sec. 4
   ordered-delivery assumption outright. *)
let reorder = { none with p_name = "reorder"; p_jitter = 1.0; p_reorder = true }

(* Everything at once. *)
let chaos =
  {
    none with
    p_name = "chaos";
    p_drop = 0.12;
    p_dup = 0.12;
    p_jitter = 0.6;
    p_outage = [ (0.3, 0.55) ];
    p_outage_mode = Source_db.Refuse;
  }

let all = [ none; jitter; drop; dup; outage; blackhole; reorder; chaos ]

let names = List.map (fun p -> p.p_name) all

let name p = p.p_name

let by_name n = List.find_opt (fun p -> String.equal p.p_name n) all

(* Independent generator per (seed, source): fault decisions at one
   source never shift the random sequence of another, so shrinking a
   failing matrix entry keeps its behaviour. *)
let rng_for ~seed src =
  Random.State.make [| 0x5eed; seed; Hashtbl.hash (Source_db.name src) |]

let policy_of ~engine ~rng ~window:(w_start, w_stop) p =
  let decide () =
    let now = Engine.now engine in
    if now < w_start || now >= w_stop then Channel.no_fault
    else
      (* draw in a fixed order so the consumed randomness per decision
         is constant regardless of which faults are enabled *)
      let drop_draw = Random.State.float rng 1.0 in
      let dup_draw = Random.State.float rng 1.0 in
      let jitter_draw =
        if p.p_jitter > 0.0 then Random.State.float rng p.p_jitter else 0.0
      in
      {
        Channel.d_drop = drop_draw < p.p_drop;
        d_dup = (if dup_draw < p.p_dup then 1 else 0);
        d_jitter = jitter_draw;
      }
  in
  { Channel.decide; reorder = p.p_reorder }

let apply ~engine ~seed ~window p sources =
  let w_start, w_stop = window in
  if w_stop < w_start then
    invalid_arg "Faults.apply: empty fault window";
  let span = w_stop -. w_start in
  List.iter
    (fun src ->
      let rng = rng_for ~seed src in
      Source_db.set_channel_policy src
        (Some (policy_of ~engine ~rng ~window p));
      if p.p_outage <> [] then
        Source_db.set_outages src ~mode:p.p_outage_mode
          (List.map
             (fun (a, b) -> (w_start +. (a *. span), w_start +. (b *. span)))
             p.p_outage))
    sources

let clear sources =
  List.iter
    (fun src ->
      Source_db.set_channel_policy src None;
      Source_db.set_outages src [])
    sources
