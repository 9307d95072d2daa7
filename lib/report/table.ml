type align = Left | Right

type t = {
  title : string;
  columns : (string * align) list;
  mutable rev_rows : string list list;
}

let create ~title ~columns = { title; columns; rev_rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Report.Table.add_row: %d cells for %d columns"
         (List.length row) (List.length t.columns));
  t.rev_rows <- row :: t.rev_rows

let title t = t.title
let columns t = List.map fst t.columns
let rows t = List.rev t.rev_rows

let cell t ~row ~col =
  let ri = row in
  let rows = rows t in
  if ri < 0 || ri >= List.length rows then raise Not_found;
  let row = List.nth rows ri in
  let rec find cols cells =
    match (cols, cells) with
    | (name, _) :: _, c :: _ when name = col -> c
    | _ :: cols, _ :: cells -> find cols cells
    | _, _ -> raise Not_found
  in
  find t.columns row

let render t =
  let headers = List.map fst t.columns in
  let all_rows = headers :: rows t in
  let widths =
    List.mapi
      (fun i _ ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          0 all_rows)
      t.columns
  in
  let pad align width s =
    let fill = String.make (width - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let render_row row =
    List.map2
      (fun (cell, (_, align)) width -> pad align width cell)
      (List.combine row t.columns)
      widths
    |> String.concat "  "
  in
  let sep =
    String.concat "--"
      (List.map (fun w -> String.make w '-') widths)
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (render_row headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  (* Header cells go through [csv_escape] too: a column name holding a
     comma must not silently widen the header row. *)
  let line cells = String.concat "," (List.map csv_escape cells) in
  String.concat "\n" (line (columns t) :: List.map line (rows t)) ^ "\n"

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_jsonl t =
  let cols = columns t in
  let line row =
    "{"
    ^ String.concat ","
        (List.map2
           (fun col cell ->
             Printf.sprintf {|"%s":"%s"|} (json_escape col) (json_escape cell))
           cols row)
    ^ "}"
  in
  String.concat "\n" (List.map line (rows t)) ^ "\n"

let markdown_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '|' -> Buffer.add_string buf "\\|"
      | '\n' | '\r' -> Buffer.add_string buf "<br>"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_markdown t =
  let headers = List.map (fun (h, _) -> markdown_escape h) t.columns in
  let body = List.map (List.map markdown_escape) (rows t) in
  let widths =
    List.mapi
      (fun i _ ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          3 (* a divider cell is at least --- *)
          (headers :: body))
      t.columns
  in
  let pad align width s =
    let fill = String.make (width - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let line cells =
    "| "
    ^ String.concat " | "
        (List.map2
           (fun (cell, (_, align)) width -> pad align width cell)
           (List.combine cells t.columns)
           widths)
    ^ " |"
  in
  let divider =
    "|"
    ^ String.concat "|"
        (List.map2
           (fun (_, align) width ->
             (* Markdown alignment markers: ---- for left, ---: for
                right. *)
             match align with
             | Left -> " " ^ String.make width '-' ^ " "
             | Right -> " " ^ String.make (width - 1) '-' ^ ": ")
           t.columns widths)
    ^ "|"
  in
  String.concat "\n" (line headers :: divider :: List.map line body) ^ "\n"

let print t =
  print_string (render t);
  print_newline ()

let fmt_int = string_of_int
let fmt_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v
let fmt_pct ?(decimals = 1) v = Printf.sprintf "%.*f%%" decimals (100.0 *. v)
let fmt_bytes n = Printf.sprintf "%dB" n
