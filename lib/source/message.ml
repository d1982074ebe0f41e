open Relalg
open Delta
open Sim

type update = {
  source : string;
  prev_version : int;
  version : int;
  commit_time : float;
  send_time : float;
  delta : Multi_delta.t;
}

type answer = {
  answer_source : string;
  answer_version : int;
  state_time : float;
  results : (string * Bag.t) list;
}

type t = Update of update | Answer of answer Engine.Ivar.t * answer
