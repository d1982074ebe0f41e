(* Tests for the discrete-event engine, the effects-based process
   layer, and FIFO channels. *)

open Sim

let test_event_order () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule engine ~delay:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule engine ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule engine ~delay:3.0 (fun () -> log := "c" :: !log);
  Engine.run engine;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now engine)

let test_simultaneous_events_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule engine ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_run_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.schedule engine ~delay:1.0 (fun () -> incr fired);
  Engine.schedule engine ~delay:5.0 (fun () -> incr fired);
  Engine.run engine ~until:2.0;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock advanced to until" 2.0 (Engine.now engine);
  Alcotest.(check int) "one pending" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "second fired" 2 !fired

let test_schedule_past_rejected () =
  let engine = Engine.create () in
  Engine.schedule engine ~delay:1.0 (fun () -> ());
  Engine.run engine;
  (try
     Engine.schedule_at engine ~time:0.5 (fun () -> ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    Engine.schedule engine ~delay:(-1.0) (fun () -> ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_process_sleep () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.spawn engine (fun () ->
      log := ("start", Engine.now engine) :: !log;
      Engine.sleep engine 2.5;
      log := ("mid", Engine.now engine) :: !log;
      Engine.sleep engine 1.5;
      log := ("end", Engine.now engine) :: !log);
  Engine.run engine;
  match List.rev !log with
  | [ ("start", t0); ("mid", t1); ("end", t2) ] ->
    Alcotest.(check (float 1e-9)) "t0" 0.0 t0;
    Alcotest.(check (float 1e-9)) "t1" 2.5 t1;
    Alcotest.(check (float 1e-9)) "t2" 4.0 t2
  | _ -> Alcotest.fail "unexpected log"

let test_sleep_outside_process () =
  let engine = Engine.create () in
  try
    Engine.sleep engine 1.0;
    Alcotest.fail "expected Blocked_outside_process"
  with Engine.Blocked_outside_process -> ()

let test_ivar_blocks_and_wakes () =
  let engine = Engine.create () in
  let iv = Engine.Ivar.create () in
  let got = ref None in
  Engine.spawn engine (fun () -> got := Some (Engine.Ivar.read engine iv));
  Engine.schedule engine ~delay:3.0 (fun () -> Engine.Ivar.fill engine iv 42);
  Engine.run engine;
  Alcotest.(check (option int)) "value delivered" (Some 42) !got;
  Alcotest.(check bool) "filled" true (Engine.Ivar.is_filled iv);
  try
    Engine.Ivar.fill engine iv 43;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_ivar_read_after_fill () =
  let engine = Engine.create () in
  let iv = Engine.Ivar.create () in
  Engine.Ivar.fill engine iv "x";
  let got = ref "" in
  Engine.spawn engine (fun () -> got := Engine.Ivar.read engine iv);
  Engine.run engine;
  Alcotest.(check string) "immediate read" "x" !got

let test_mutex_serializes () =
  let engine = Engine.create () in
  let m = Engine.Mutex.create () in
  let log = ref [] in
  let worker name duration =
    Engine.spawn engine (fun () ->
        Engine.Mutex.with_lock engine m (fun () ->
            log := (name ^ ":in", Engine.now engine) :: !log;
            Engine.sleep engine duration;
            log := (name ^ ":out", Engine.now engine) :: !log))
  in
  worker "a" 2.0;
  worker "b" 1.0;
  Engine.run engine;
  Alcotest.(check (list string))
    "critical sections do not interleave"
    [ "a:in"; "a:out"; "b:in"; "b:out" ]
    (List.map fst (List.rev !log))

let test_mutex_fifo_order () =
  let engine = Engine.create () in
  let m = Engine.Mutex.create () in
  let order = ref [] in
  Engine.spawn engine (fun () ->
      Engine.Mutex.with_lock engine m (fun () -> Engine.sleep engine 5.0));
  for i = 1 to 3 do
    Engine.schedule engine ~delay:(float_of_int i) (fun () ->
        Engine.spawn engine (fun () ->
            Engine.Mutex.with_lock engine m (fun () -> order := i :: !order)))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "FIFO handoff" [ 1; 2; 3 ] (List.rev !order)

let test_mutex_unlock_unlocked () =
  let engine = Engine.create () in
  let m = Engine.Mutex.create () in
  try
    Engine.Mutex.unlock engine m;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_process_exception_propagates () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () ->
      Engine.sleep engine 1.0;
      failwith "boom");
  try
    Engine.run engine;
    Alcotest.fail "expected Failure"
  with Failure msg -> Alcotest.(check string) "message" "boom" msg

let test_channel_delay_and_order () =
  let engine = Engine.create () in
  let got = ref [] in
  let ch = Channel.create engine ~delay:1.5 (fun m -> got := (m, Engine.now engine) :: !got) in
  Channel.send ch "first";
  Engine.schedule engine ~delay:1.0 (fun () -> Channel.send ch "second");
  Engine.run engine;
  (match List.rev !got with
  | [ ("first", t1); ("second", t2) ] ->
    Alcotest.(check (float 1e-9)) "first delivery" 1.5 t1;
    Alcotest.(check (float 1e-9)) "second delivery" 2.5 t2
  | _ -> Alcotest.fail "unexpected deliveries");
  Alcotest.(check int) "sent" 2 (Channel.sent_count ch);
  Alcotest.(check int) "delivered" 2 (Channel.delivered_count ch);
  Alcotest.(check int) "none in flight" 0 (Channel.in_flight ch)

let test_channel_fifo_preserved () =
  (* simultaneous sends deliver in send order *)
  let engine = Engine.create () in
  let got = ref [] in
  let ch = Channel.create engine ~delay:1.0 (fun m -> got := m :: !got) in
  for i = 1 to 10 do
    Channel.send ch i
  done;
  Engine.run engine;
  Alcotest.(check (list int))
    "order preserved"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !got)

let test_channel_zero_delay () =
  let engine = Engine.create () in
  let got = ref [] in
  let ch = Channel.create engine ~delay:0.0 (fun m -> got := m :: !got) in
  Channel.send ch "a";
  Channel.send ch "b";
  Alcotest.(check (list string)) "not delivered synchronously" [] !got;
  Engine.run engine;
  Alcotest.(check (list string)) "delivered in order" [ "a"; "b" ] (List.rev !got);
  Alcotest.(check (float 1e-9)) "no time passed" 0.0 (Engine.now engine)

let const_policy ?(reorder = false) d = { Channel.decide = (fun () -> d); reorder }

let test_channel_drop_policy () =
  let engine = Engine.create () in
  let got = ref [] in
  let ch = Channel.create engine ~delay:1.0 (fun m -> got := m :: !got) in
  (* drop every second message *)
  let n = ref 0 in
  Channel.set_policy ch
    (Some
       {
         Channel.decide =
           (fun () ->
             incr n;
             { Channel.no_fault with d_drop = !n mod 2 = 0 });
         reorder = false;
       });
  for i = 1 to 6 do
    Channel.send ch i
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "survivors in order" [ 1; 3; 5 ] (List.rev !got);
  Alcotest.(check int) "sent counts all" 6 (Channel.sent_count ch);
  Alcotest.(check int) "delivered" 3 (Channel.delivered_count ch);
  Alcotest.(check int) "dropped" 3 (Channel.dropped_count ch)

let test_channel_dup_policy () =
  let engine = Engine.create () in
  let got = ref [] in
  let ch = Channel.create engine ~delay:1.0 (fun m -> got := m :: !got) in
  Channel.set_policy ch (Some (const_policy { Channel.no_fault with d_dup = 2 }));
  Channel.send ch "m";
  Engine.run engine;
  Alcotest.(check (list string)) "original + 2 copies" [ "m"; "m"; "m" ]
    (List.rev !got);
  Alcotest.(check int) "sent" 1 (Channel.sent_count ch);
  Alcotest.(check int) "delivered counts copies" 3 (Channel.delivered_count ch);
  Alcotest.(check int) "duplicated" 2 (Channel.duplicated_count ch)

let test_channel_jitter_fifo_clamp () =
  (* the first message gets heavy jitter; without reorder the second
     must still arrive after it, clamped to its delivery time *)
  let engine = Engine.create () in
  let got = ref [] in
  let first = ref true in
  let ch = Channel.create engine ~delay:1.0 (fun m -> got := (m, Engine.now engine) :: !got) in
  Channel.set_policy ch
    (Some
       {
         Channel.decide =
           (fun () ->
             let j = if !first then 5.0 else 0.0 in
             first := false;
             { Channel.no_fault with d_jitter = j });
         reorder = false;
       });
  Channel.send ch "slow";
  Channel.send ch "fast";
  Engine.run engine;
  (match List.rev !got with
  | [ ("slow", t1); ("fast", t2) ] ->
    Alcotest.(check (float 1e-9)) "jittered" 6.0 t1;
    Alcotest.(check bool) "FIFO clamp holds" true (t2 >= t1)
  | _ -> Alcotest.fail "expected slow before fast");
  (* same shape with reorder allowed: the fast message overtakes *)
  let engine = Engine.create () in
  let got = ref [] in
  let first = ref true in
  let ch = Channel.create engine ~delay:1.0 (fun m -> got := m :: !got) in
  Channel.set_policy ch
    (Some
       {
         Channel.decide =
           (fun () ->
             let j = if !first then 5.0 else 0.0 in
             first := false;
             { Channel.no_fault with d_jitter = j });
         reorder = true;
       });
  Channel.send ch "slow";
  Channel.send ch "fast";
  Engine.run engine;
  Alcotest.(check (list string)) "overtaking allowed" [ "fast"; "slow" ]
    (List.rev !got)

let test_channel_link_down () =
  let engine = Engine.create () in
  let got = ref [] in
  let ch = Channel.create engine ~delay:1.0 (fun m -> got := m :: !got) in
  Channel.send ch 1;
  Channel.set_link ch ~up:false;
  Channel.send ch 2;
  Channel.send ch 3;
  Channel.set_link ch ~up:true;
  Channel.send ch 4;
  Engine.run engine;
  Alcotest.(check (list int))
    "in-flight survives, downed sends lost" [ 1; 4 ] (List.rev !got);
  Alcotest.(check int) "dropped" 2 (Channel.dropped_count ch)

let test_channel_policy_determinism () =
  (* the same seeded policy produces the same delivery trace *)
  let trace seed =
    let engine = Engine.create () in
    let got = ref [] in
    let ch = Channel.create engine ~delay:1.0 (fun m -> got := (m, Engine.now engine) :: !got) in
    let rng = Random.State.make [| seed |] in
    Channel.set_policy ch
      (Some
         {
           Channel.decide =
             (fun () ->
               {
                 Channel.d_drop = Random.State.float rng 1.0 < 0.3;
                 d_dup = (if Random.State.float rng 1.0 < 0.2 then 1 else 0);
                 d_jitter = Random.State.float rng 2.0;
               });
           reorder = false;
         });
    for i = 1 to 50 do
      Channel.send ch i
    done;
    Engine.run engine;
    (List.rev !got, Channel.dropped_count ch, Channel.duplicated_count ch)
  in
  let t1, d1, u1 = trace 7 and t2, d2, u2 = trace 7 in
  Alcotest.(check (list (pair int (float 1e-9)))) "same trace" t1 t2;
  Alcotest.(check int) "same drops" d1 d2;
  Alcotest.(check int) "same dups" u1 u2;
  let t3, _, _ = trace 8 in
  Alcotest.(check bool) "different seed differs" true (t1 <> t3)

let test_nested_process_spawn () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.spawn engine (fun () ->
      Engine.sleep engine 1.0;
      Engine.spawn engine (fun () ->
          Engine.sleep engine 1.0;
          log := "child" :: !log);
      Engine.sleep engine 0.5;
      log := "parent" :: !log);
  Engine.run engine;
  Alcotest.(check (list string)) "both ran" [ "parent"; "child" ] (List.rev !log)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "simultaneous FIFO" `Quick test_simultaneous_events_fifo;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "past scheduling rejected" `Quick test_schedule_past_rejected;
        ] );
      ( "processes",
        [
          Alcotest.test_case "sleep" `Quick test_process_sleep;
          Alcotest.test_case "sleep outside process" `Quick test_sleep_outside_process;
          Alcotest.test_case "ivar blocks and wakes" `Quick test_ivar_blocks_and_wakes;
          Alcotest.test_case "ivar read after fill" `Quick test_ivar_read_after_fill;
          Alcotest.test_case "mutex serializes" `Quick test_mutex_serializes;
          Alcotest.test_case "mutex FIFO" `Quick test_mutex_fifo_order;
          Alcotest.test_case "unlock unlocked" `Quick test_mutex_unlock_unlocked;
          Alcotest.test_case "exception propagates" `Quick test_process_exception_propagates;
          Alcotest.test_case "nested spawn" `Quick test_nested_process_spawn;
        ] );
      ( "channels",
        [
          Alcotest.test_case "delay and order" `Quick test_channel_delay_and_order;
          Alcotest.test_case "FIFO preserved" `Quick test_channel_fifo_preserved;
          Alcotest.test_case "zero delay" `Quick test_channel_zero_delay;
          Alcotest.test_case "drop policy" `Quick test_channel_drop_policy;
          Alcotest.test_case "dup policy" `Quick test_channel_dup_policy;
          Alcotest.test_case "jitter FIFO clamp" `Quick test_channel_jitter_fifo_clamp;
          Alcotest.test_case "link down" `Quick test_channel_link_down;
          Alcotest.test_case "seeded determinism" `Quick test_channel_policy_determinism;
        ] );
    ]
