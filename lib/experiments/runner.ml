(** Pooled experiment execution.

    Runs a selection of experiments on a {!Scd_util.Pool}: the experiments
    themselves become pool tasks (so independent figures regenerate
    concurrently), and while each runs, its {!Sweep.rows} calls fan the
    individual (workload, configuration) cells out over the same pool —
    the pool's caller-helping queue makes this nesting deadlock-free.

    Each experiment's tables are rendered into a string inside the task;
    callers print the strings in submission order, so the byte stream is
    identical to a sequential run regardless of scheduling. *)

type rendered = {
  experiment : Experiment.t;
  body : string;  (** Rendered (or CSV) tables, each followed by a blank line. *)
  seconds : float;  (** Wall-clock inside the pool task. *)
}

let render_tables ~csv tables =
  let buf = Buffer.create 1024 in
  List.iter
    (fun t ->
      Buffer.add_string buf
        (if csv then Scd_util.Table.to_csv t else Scd_util.Table.render t);
      Buffer.add_char buf '\n')
    tables;
  Buffer.contents buf

(** [run_all ~pool ~quick ~csv experiments] regenerates every experiment,
    concurrently when the pool has more than one job, and returns the
    renderings in the order [experiments] was given. The pool is installed
    as the sweep prefetch pool for the duration of the call. *)
let run_all ~pool ~quick ~csv experiments =
  Sweep.set_pool (Some pool);
  Fun.protect ~finally:(fun () -> Sweep.set_pool None) @@ fun () ->
  Scd_util.Pool.map pool
    (fun (e : Experiment.t) ->
      let t0 = Unix.gettimeofday () in
      let body = render_tables ~csv (e.run ~quick) in
      { experiment = e; body; seconds = Unix.gettimeofday () -. t0 })
    experiments
