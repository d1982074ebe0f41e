open Vdp
open Sim
open Sources
open Squirrel

type config = {
  interval : float;
  warmup : float;
  cooldown : float;
  min_gain : float;
  smoothing : float;
  self_maintain : bool;
  advisor : Advisor.config;
}

let default_config =
  {
    interval = 5.0;
    warmup = 10.0;
    cooldown = 10.0;
    min_gain = 0.05;
    smoothing = 0.5;
    self_maintain = false;
    advisor =
      { Advisor.default_config with Advisor.update_pressure_weight = 1.0 };
  }

type event = {
  e_time : float;
  e_plan : Migrate.plan;
  e_ops : int;
  e_gain : float;
  e_aux : (string * string list) list;
}

type t = {
  med : Med.t;
  mon : Monitor.t;
  config : config;
  mutable last_migration : float;
  mutable aux : (string * string list) list;
      (* auxiliary attributes currently materialized on selfmaint's
         behalf (beyond the advisor's own target) *)
  mutable log : event list; (* newest first *)
}

let create ?(config = default_config) med =
  {
    med;
    mon = Monitor.create ~smoothing:config.smoothing med;
    config;
    last_migration = Float.neg_infinity;
    aux = [];
    log = [];
  }

let monitor t = t.mon
let events t = List.rev t.log

let mem_aux aux node attr =
  match List.assoc_opt node aux with
  | Some attrs -> List.mem attr attrs
  | None -> false

let tick t =
  Monitor.observe t.mon;
  let now = Engine.now t.med.Med.engine in
  if now < t.config.warmup || now -. t.last_migration < t.config.cooldown then
    None
  else begin
    let vdp = t.med.Med.vdp in
    let profile = Monitor.profile t.mon in
    let advisor_target, _why =
      Advisor.advise ~config:t.config.advisor vdp profile
    in
    (* the advisor's move is cost-gated as before; the selfmaint
       extension is not — it trades store space for poll-freedom,
       which the analytic cost model does not price *)
    (* maintenance costs are amortized over the realized mean batch
       size: the policy compares annotations under the update cadence
       the group-commit layer actually delivers, not per-announcement *)
    let batch = Monitor.mean_batch t.med in
    let current = Cost.total (Cost.estimate ~batch vdp t.med.Med.ann profile) in
    let proposed = Cost.total (Cost.estimate ~batch vdp advisor_target profile) in
    let gain = (current -. proposed) /. Float.max current 1e-9 in
    let advisor_ok =
      (not
         (Migrate.is_noop
            (Migrate.diff vdp ~old_ann:t.med.Med.ann ~new_ann:advisor_target)))
      && gain >= t.config.min_gain
    in
    let base = if advisor_ok then advisor_target else t.med.Med.ann in
    let target, aux =
      if t.config.self_maintain then begin
        let announces s = Source_db.announces (Med.source t.med s) in
        let ext = Selfmaint.target vdp base ~announces in
        (ext, Selfmaint.added vdp ~base ~ext)
      end
      else (base, [])
    in
    let plan = Migrate.diff vdp ~old_ann:t.med.Med.ann ~new_ann:target in
    if Migrate.is_noop plan then None
    else begin
      let ops = Migrate.apply t.med plan in
      (* promotion/demotion accounting for the auxiliary views only *)
      List.iter
        (fun (node, attrs) ->
          List.iter
            (fun a ->
              if mem_aux aux node a then
                Obs.Metrics.incr t.med.Med.stats.Med.aux_promotions)
            attrs)
        (Migrate.promotions plan);
      List.iter
        (fun (node, attrs) ->
          List.iter
            (fun a ->
              if mem_aux t.aux node a then
                Obs.Metrics.incr t.med.Med.stats.Med.aux_demotions)
            attrs)
        (Migrate.demotions plan);
      t.aux <- aux;
      let ev =
        {
          e_time = now;
          e_plan = plan;
          e_ops = ops;
          e_gain = (if advisor_ok then gain else 0.0);
          e_aux = aux;
        }
      in
      t.last_migration <- now;
      t.log <- ev :: t.log;
      Some ev
    end
  end

let start t =
  let rec loop () =
    Engine.sleep t.med.Med.engine t.config.interval;
    ignore (tick t);
    loop ()
  in
  Engine.spawn t.med.Med.engine loop
