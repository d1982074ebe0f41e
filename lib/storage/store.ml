exception Store_error of string

let err fmt = Format.kasprintf (fun s -> raise (Store_error s)) fmt

type t = { tables : (string, Table.t) Hashtbl.t }

let create () = { tables = Hashtbl.create 16 }

let create_table ?indexes t ~name schema =
  if Hashtbl.mem t.tables name then err "table %S already exists" name;
  let table = Table.create ?indexes ~name schema in
  Hashtbl.replace t.tables name table;
  table

let table_opt t name = Hashtbl.find_opt t.tables name

let table t name =
  match table_opt t name with
  | Some tbl -> tbl
  | None -> err "no table %S in store" name

let table_names t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [])

let total_bytes t =
  Hashtbl.fold (fun _ tbl acc -> acc + Table.bytes_estimate tbl) t.tables 0
