exception Blocked_outside_process

module Key = struct
  type t = float * int

  let compare (t1, s1) (t2, s2) =
    match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end

module Queue_map = Map.Make (Key)

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable events : (unit -> unit) Queue_map.t;
}

let create () = { clock = 0.0; seq = 0; events = Queue_map.empty }

let now t = t.clock

let schedule_at t ~time callback =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %g is before current time %g" time
         t.clock);
  t.seq <- t.seq + 1;
  t.events <- Queue_map.add (time, t.seq) callback t.events

let schedule t ~delay callback =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) callback

let pending t = Queue_map.cardinal t.events

let run ?until t =
  let continue_run () =
    match Queue_map.min_binding_opt t.events with
    | None -> false
    | Some ((time, _), _) -> (
      match until with Some u -> time <= u | None -> true)
  in
  while continue_run () do
    let ((time, _) as key), callback = Queue_map.min_binding t.events in
    t.events <- Queue_map.remove key t.events;
    t.clock <- time;
    callback ()
  done;
  match until with
  | Some u when u > t.clock -> t.clock <- u
  | Some _ | None -> ()

(* --- process layer ---------------------------------------------------- *)

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
        (** [Suspend register]: capture the continuation, hand a resume
            thunk to [register]; the process continues when the thunk
            is invoked (exactly once). *)

let spawn _t body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                register (fun () -> continue k ()))
          | _ -> None);
    }

let suspend register =
  try Effect.perform (Suspend register)
  with Effect.Unhandled _ -> raise Blocked_outside_process

let sleep t duration = suspend (fun resume -> schedule t ~delay:duration resume)

(* Drive one process to completion from outside the simulation: run
   the engine a time unit at a time until [f] returns, leaving whatever
   else is queued (a flusher, a heartbeat) in place. *)
let run_process t f =
  let result = ref None in
  spawn t (fun () -> result := Some (f ()));
  let rec go slices =
    match !result with
    | Some v -> v
    | None ->
      if slices > 100_000 then
        failwith "Engine.run_process: the process did not return";
      run t ~until:(t.clock +. 1.0);
      go (slices + 1)
  in
  go 0

module Ivar = struct
  type 'a state = Empty of (unit -> unit) list | Full of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty [] }

  let is_filled iv = match iv.state with Full _ -> true | Empty _ -> false

  let fill engine iv v =
    match iv.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
      iv.state <- Full v;
      List.iter
        (fun resume -> schedule engine ~delay:0.0 resume)
        (List.rev waiters)

  let read engine iv =
    match iv.state with
    | Full v -> v
    | Empty _ ->
      suspend (fun resume ->
          match iv.state with
          | Full _ -> schedule engine ~delay:0.0 resume
          | Empty waiters -> iv.state <- Empty (resume :: waiters));
      (match iv.state with
      | Full v -> v
      | Empty _ -> assert false)

  let read_timeout engine iv ~timeout =
    match iv.state with
    | Full v -> Some v
    | Empty _ ->
      suspend (fun resume ->
          (* the process is woken by whichever fires first — the fill
             or the timer; [fired] makes the wake-up happen only once *)
          let fired = ref false in
          let once () =
            if not !fired then begin
              fired := true;
              resume ()
            end
          in
          schedule engine ~delay:timeout once;
          match iv.state with
          | Full _ -> schedule engine ~delay:0.0 once
          | Empty waiters -> iv.state <- Empty (once :: waiters));
      (match iv.state with Full v -> Some v | Empty _ -> None)
end

(* Fork/join: run every thunk as its own process, block the caller
   until the last one finishes. Results come back in input order, so
   deterministic scatter-gather (the federation coordinator fanning a
   query out to shards) needs no per-call bookkeeping. *)
let parallel t thunks =
  match thunks with
  | [] -> []
  | _ ->
    let n = List.length thunks in
    let results = Array.make n None in
    let all_done = Ivar.create () in
    let remaining = ref n in
    List.iteri
      (fun i thunk ->
        spawn t (fun () ->
            let r =
              try Ok (thunk ())
              with e -> Error (e, Printexc.get_raw_backtrace ())
            in
            results.(i) <- Some r;
            decr remaining;
            if !remaining = 0 then Ivar.fill t all_done ()))
      thunks;
    Ivar.read t all_done;
    List.init n (fun i ->
        match results.(i) with
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)

module Mutex = struct
  type t = { mutable locked : bool; waiters : (unit -> unit) Queue.t }

  let create () = { locked = false; waiters = Queue.create () }

  let lock engine m =
    if not m.locked then m.locked <- true
    else begin
      suspend (fun resume -> Queue.add resume m.waiters);
      (* woken holding the lock: unlock passes ownership directly *)
      ignore engine
    end

  let unlock engine m =
    if not m.locked then invalid_arg "Mutex.unlock: not locked";
    match Queue.take_opt m.waiters with
    | Some resume ->
      (* keep [locked]; ownership transfers to the next waiter *)
      schedule engine ~delay:0.0 resume
    | None -> m.locked <- false

  let with_lock engine m f =
    lock engine m;
    match f () with
    | v ->
      unlock engine m;
      v
    | exception e ->
      unlock engine m;
      raise e
end
