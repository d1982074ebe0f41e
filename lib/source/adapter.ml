type backend = Relational | Triple of Triple_store.t | Mirror
type t = { db : Source_db.t; backend : backend }

let relational db = { db; backend = Relational }
let triple ts = { db = Triple_store.source_db ts; backend = Triple ts }
let mirror db = { db; backend = Mirror }
let db t = t.db

let kind t =
  match t.backend with
  | Relational -> "relational"
  | Triple _ -> "triple"
  | Mirror -> "mediator"

let name t = Source_db.name t.db
let schema t rel = Source_db.schema t.db rel
let current t rel = Source_db.current t.db rel

let read_only t what =
  Source_db.err
    "mediator-backed source %s is read-only: %s the child mediator's own \
     sources"
    (name t) what

let commit t md =
  match t.backend with
  | Relational -> Source_db.commit t.db md
  | Triple ts -> Triple_store.commit ts md
  | Mirror -> read_only t "commit at"

let load t rel bag =
  match t.backend with
  | Relational -> Source_db.load t.db rel bag
  | Triple ts -> Triple_store.load ts rel bag
  | Mirror -> read_only t "load"
