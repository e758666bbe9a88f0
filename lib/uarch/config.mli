(** Machine configurations, mirroring the paper's Table II.

    [simulator] is the gem5 MinorCPU / ARM Cortex-A5-like setup used for the
    main evaluation; [fpga] is the RISC-V Rocket core used for the FPGA runs
    (Table IV); [high_end] is the dual-issue Cortex-A8-like core of
    Section VI-C2. *)

type t = {
  name : string;
  issue_width : int;  (** 1 or 2. *)
  branch_penalty : int;  (** Pipeline flush cycles on a misprediction. *)
  direct_bubble : int;
      (** Bubble when a direct jump (or taken conditional branch with a BTB
          target miss) is redirected at decode rather than fetch. *)
  bop_hit_bubble : int;
      (** Cycles between a hitting [bop] and the first target instruction
          ("PC is redirected ... in the following cycle"). *)
  rop_gap : int;
      (** Instructions that must separate an [.op] producer from [bop] to
          avoid the Rop-not-ready stall (the paper's stalling scheme). *)
  bop_policy : [ `Stall | `Fall_through ];
      (** What happens when [bop] is fetched before Rop is ready
          (Section III-B's two schemes): [`Stall] inserts bubbles until the
          [.op] producer reaches Execute (the paper's default); when
          [`Fall_through] the bop simply misses and the slow path runs. *)
  direction : Direction.kind;
  btb_entries : int;
  btb_ways : int;
  btb_replacement : Btb.replacement;
  jte_cap : int option;  (** Maximum resident JTEs (Section VI-C1). *)
  ras_depth : int;
  icache : Cache.geometry;
  dcache : Cache.geometry;
  l2 : Cache.geometry option;
  itlb_entries : int;
  dtlb_entries : int;
  tlb_penalty : int;  (** Page-walk cycles on a TLB miss. *)
  l2_latency : int;  (** Added cycles for an L1 miss that hits in L2. *)
  mem_latency : int;  (** Added cycles for a access that reaches DRAM. *)
}

val simulator : t
(** Table II, left column: 4-stage single-issue at 1 GHz, tournament
    predictor (512 global / 128 local), 256-entry 2-way round-robin BTB,
    8-entry RAS, 16 KiB 2-way I\$, 32 KiB 4-way D\$, DDR3-1600. *)

val fpga : t
(** Table II, right column: Rocket-like 5-stage single-issue at 50 MHz,
    128-entry gshare, 62-entry fully-associative LRU BTB, 2-entry RAS,
    16 KiB 4-way I\$ and D\$, DDR3-1066. *)

val high_end : t
(** Section VI-C2: dual-issue, 32 KiB 4-way I\$, 256 KiB L2, 512-entry
    BTB. *)

val with_btb_entries : t -> int -> t
(** Resize the BTB (fully associative stays fully associative; otherwise the
    way count is kept). Used by the Figure 11 sensitivity sweeps. *)

val with_jte_cap : t -> int option -> t
