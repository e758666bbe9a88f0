(* Print one line per cell of a sweep store, sorted by file name: the file
   name and the file's integrity header, the FNV-1a sum of the cell's
   encoded result. Every counter of a cell reaches that sum, so diffing
   this listing pins the cells an experiment run computes, including the
   counters no table renders.

   Usage: cell_sums.exe STORE-DIR *)

let () =
  let dir = Sys.argv.(1) in
  List.iter
    (fun file ->
      let ic = open_in_bin (Filename.concat dir file) in
      let sum = input_line ic in
      close_in ic;
      Printf.printf "%s %s\n" file sum)
    (Scd_experiments.Store.entries (Scd_experiments.Store.create dir))
