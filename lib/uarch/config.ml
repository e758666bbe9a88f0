type t = {
  name : string;
  issue_width : int;
  branch_penalty : int;
  direct_bubble : int;
  bop_hit_bubble : int;
  rop_gap : int;
  bop_policy : [ `Stall | `Fall_through ];
  direction : Direction.kind;
  btb_entries : int;
  btb_ways : int;
  btb_replacement : Btb.replacement;
  jte_cap : int option;
  ras_depth : int;
  icache : Cache.geometry;
  dcache : Cache.geometry;
  l2 : Cache.geometry option;
  itlb_entries : int;
  dtlb_entries : int;
  tlb_penalty : int;
  l2_latency : int;
  mem_latency : int;
}

let simulator =
  {
    name = "simulator";
    issue_width = 1;
    (* Table II lists a 3-cycle branch-miss penalty; the effective redirect
       cost on MinorCPU (fetch1/fetch2 refill + decode drain) is one more. *)
    branch_penalty = 4;
    direct_bubble = 1;
    bop_hit_bubble = 1;
    rop_gap = 3;
    bop_policy = `Stall;
    direction =
      Direction.Tournament
        {
          global_entries = 512;
          local_history_entries = 128;
          local_pattern_entries = 512;
          chooser_entries = 512;
        };
    btb_entries = 256;
    btb_ways = 2;
    btb_replacement = Btb.Round_robin;
    jte_cap = None;
    ras_depth = 8;
    (* L1 hits are pipelined and cost no cycle; an L1 miss pays
       [l2_latency] on an L2 hit, plus [mem_latency] when it reaches DRAM. *)
    icache = { size_bytes = 16 * 1024; ways = 2; block_bytes = 64 };
    dcache = { size_bytes = 32 * 1024; ways = 4; block_bytes = 64 };
    l2 = None;
    itlb_entries = 10;
    dtlb_entries = 10;
    tlb_penalty = 20;
    l2_latency = 0;
    (* 1 GHz core, DDR3-1600 (CL 11): ~55 ns load-to-use. *)
    mem_latency = 55;
  }

let fpga =
  {
    name = "fpga";
    issue_width = 1;
    branch_penalty = 2;
    direct_bubble = 1;
    bop_hit_bubble = 1;
    rop_gap = 3;
    bop_policy = `Stall;
    direction = Direction.Gshare { entries = 128; history_bits = 7 };
    btb_entries = 62;
    (* The Rocket BTB is fully associative with 62 entries; our model needs a
       power-of-two set count, so a fully-associative table is one set. 62 is
       not even, therefore we model 62 entries as a single 62-way set. *)
    btb_ways = 62;
    btb_replacement = Btb.Lru;
    jte_cap = None;
    ras_depth = 2;
    icache = { size_bytes = 16 * 1024; ways = 4; block_bytes = 64 };
    dcache = { size_bytes = 16 * 1024; ways = 4; block_bytes = 64 };
    l2 = None;
    itlb_entries = 8;
    dtlb_entries = 8;
    tlb_penalty = 12;
    l2_latency = 0;
    (* 50 MHz core, DDR3-1066: DRAM is only a handful of core cycles away. *)
    mem_latency = 6;
  }

let high_end =
  {
    simulator with
    name = "high-end";
    issue_width = 2;
    branch_penalty = 4;
    icache = { size_bytes = 32 * 1024; ways = 4; block_bytes = 64 };
    btb_entries = 512;
    l2 = Some { size_bytes = 256 * 1024; ways = 8; block_bytes = 64 };
    l2_latency = 8;
    mem_latency = 80;
  }

let with_btb_entries t entries =
  let ways = if t.btb_ways >= t.btb_entries then entries else t.btb_ways in
  { t with btb_entries = entries; btb_ways = ways;
           name = Printf.sprintf "%s/btb%d" t.name entries }

let with_jte_cap t jte_cap = { t with jte_cap }
