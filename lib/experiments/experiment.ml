(** One reproducible experiment = one figure or table of the paper. *)

type t = {
  id : string;  (** Short handle, e.g. "fig7". *)
  paper : string;  (** "Figure 7", "Table IV", ... *)
  title : string;
  run : quick:bool -> Scd_util.Table.t list;
      (** Regenerate the figure/table data. [quick] substitutes test-scale
          inputs for fast smoke runs. *)
}
