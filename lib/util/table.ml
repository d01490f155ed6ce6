type align = Left | Right

type row = Cells of string list | Separator

type t = {
  headers : string array;
  aligns : align array;
  mutable rows : row list; (* reversed *)
}

let create columns =
  let headers = Array.of_list (List.map fst columns) in
  let aligns = Array.of_list (List.map snd columns) in
  { headers; aligns; rows = [] }

let add_row t cells =
  if List.length cells <> Array.length t.headers then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- Cells cells :: t.rows

let add_sep t = t.rows <- Separator :: t.rows

let render t =
  let rows = List.rev t.rows in
  let ncols = Array.length t.headers in
  let widths = Array.map String.length t.headers in
  let measure = function
    | Separator -> ()
    | Cells cells ->
      List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  List.iter measure rows;
  let pad align width s =
    let fill = String.make (width - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let buf = Buffer.create 256 in
  let sep_line () =
    for i = 0 to ncols - 1 do
      Buffer.add_string buf (String.make (widths.(i) + 2) '-');
      if i < ncols - 1 then Buffer.add_char buf '+'
    done;
    Buffer.add_char buf '\n'
  in
  let emit_cells cells =
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad t.aligns.(i) widths.(i) c);
        Buffer.add_char buf ' ';
        if i < ncols - 1 then Buffer.add_char buf '|')
      cells;
    Buffer.add_char buf '\n'
  in
  emit_cells (Array.to_list t.headers);
  sep_line ();
  List.iter (function Separator -> sep_line () | Cells cells -> emit_cells cells) rows;
  Buffer.contents buf

let print t = print_string (render t); print_newline ()
