(* The golden-file step the golden executables share.  [golden/NAME.golden]
   holds the rendering a scenario must reproduce byte for byte.  With
   BUNSHIN_REGEN_GOLDEN=DIR set, each fresh rendering is written to
   DIR/NAME.golden instead of compared. *)

let regen_dir = Sys.getenv_opt "BUNSHIN_REGEN_GOLDEN"

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Compare [fresh] with golden [name], or write it when regenerating.  A
   missing or drifted golden is an [Error]; a drifted rendering is left in
   NAME.fresh in the build directory for diffing. *)
let check name fresh =
  let path = Filename.concat (Option.value ~default:"golden" regen_dir) (name ^ ".golden") in
  match regen_dir with
  | Some _ ->
    write_file path fresh;
    Ok ()
  | None ->
    if not (Sys.file_exists path) then Error ("missing golden " ^ path)
    else if In_channel.with_open_bin path In_channel.input_all = fresh then Ok ()
    else begin
      write_file (name ^ ".fresh") fresh;
      Error ("drifted from golden " ^ path)
    end

(* End an executable that collected its failures, newest first: print
   them and exit 1 if there are any. *)
let finish failures =
  match failures with
  | [] -> if regen_dir <> None then print_string "goldens regenerated\n"
  | fs ->
    List.iter (fun f -> prerr_endline ("FAIL " ^ f)) fs;
    exit 1
