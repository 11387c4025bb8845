#!/usr/bin/env python3
"""Nested virtualization: hardware-assisted translation where none existed.

The paper's boldest claim (§3.2, §6.1.3): because DMT scales linearly
with virtualization depth, pvDMT makes hardware-assisted translation
viable for *nested* virtualization — three memory references for
L2VA -> L0PA — where today's systems must fall back to shadow paging and
eat its VM exits.

This example builds the full three-layer stack of Figure 9:

* L0 host kernel with DMT-Linux managing L1's host table in L0 TEAs;
* an L1 VM running its own hypervisor, whose table for L2 lives in TEAs
  obtained from L0 via the cascaded ``KVM_HC_ALLOC_TEA``;
* an L2 VM whose guest TEAs are, transitively, L0-contiguous.

It then translates one address both ways and replays a GUPS trace.

Run:  python examples/nested_virtualization.py
"""

from repro.sim import NestedSimulation, SimConfig
from repro.sim.perfmodel import model_from_stats


def main() -> None:
    config = SimConfig(scale=1024, nrefs=15_000, record_refs=True)
    print("building L0 -> L1 -> L2 (this assembles three kernels, two "
          "hypervisors,\nthree DMT-Linux instances and the shadow table "
          "the baseline needs) ...")
    sim = NestedSimulation("GUPS", config)
    sim.build()  # machine attributes (process, nested, ...) exist once built

    # one address, end to end
    va = int(sim.tlb.miss_vas[0])  # miss_vas is an int64 ndarray
    l2pa, _ = sim.process.page_table.translate(va)
    l1pa = sim.nested.l2pa_to_l1pa(l2pa)
    l0pa = sim.nested.l1pa_to_l0pa(l1pa)
    print(f"\nL2VA {va:#x} -> L2PA {l2pa:#x} -> L1PA {l1pa:#x} -> L0PA {l0pa:#x}")

    walker = sim.walker("pvdmt")
    result = walker.translate(va)
    print(f"pvDMT translated it in {result.sequential_steps} memory references "
          f"(the paper's 'three' of §3.2); PA matches: {result.pa == l0pa}")

    print("\nreplaying the TLB-miss stream:")
    vanilla = sim.run("vanilla")
    pvdmt = sim.run("pvdmt")
    print(f"  nested KVM (shadow-assisted 2D walk): "
          f"{vanilla.mean_latency:7.1f} cycles/walk")
    print(f"  pvDMT (three direct references)     : "
          f"{pvdmt.mean_latency:7.1f} cycles/walk")

    model = model_from_stats("GUPS", "nested", vanilla, pvdmt,
                             retained_other_fraction=0.0)
    print(f"\nthe §5 model, with shadow paging's VM exits eliminated:")
    print(f"  baseline execution : {model.t_vanilla:8.0f} s (13.9x native — "
          f"the paper's GUPS outlier)")
    print(f"  pvDMT execution    : {model.t_target:8.0f} s "
          f"({model.app_speedup:.2f}x application speedup; paper: ~2x for GUPS)")

    l1, l2 = sim.nested.l1_vm, sim.nested.l2_vm
    print(f"\nhypercall traffic during setup: L1->L0 {l1.exits.hypercalls}, "
          f"L2->L1 {l2.exits.hypercalls} (TEA allocation only — PTE updates "
          f"never exit)")


if __name__ == "__main__":
    main()
