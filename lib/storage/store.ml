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

let mem t name = Hashtbl.mem t.tables name

let table_names t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [])

let env t name = Option.map Table.contents (table_opt t name)

let total_bytes t =
  Hashtbl.fold (fun _ tbl acc -> acc + Table.bytes_estimate tbl) t.tables 0

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt name ->
         Table.pp fmt (table t name)))
    (table_names t)
