#!/usr/bin/env python3
"""A Redis-like workload in a VM: vanilla KVM vs DMT vs pvDMT.

Reproduces the paper's headline scenario (§6.1.2) end to end:

* a host kernel running a KVM-style hypervisor and host-side DMT-Linux
  (EPT leaf tables in host TEAs — the hVMA-to-hTEA mapping);
* a guest whose DMT-Linux obtains its TEAs from the host through the
  ``KVM_HC_ALLOC_TEA`` hypercall, so guest TEAs are host-contiguous;
* the Redis workload's trace filtered through the TLBs once, then
  replayed through the vanilla 2D walker (24 references), DMT (3) and
  pvDMT (2), and finally the §5 performance model turning walk-latency
  savings into an application speedup.

Run:  python examples/virtualized_cloud.py
"""

from repro.sim import SimConfig, VirtSimulation
from repro.sim.perfmodel import model_from_stats


def main() -> None:
    config = SimConfig(scale=1024, nrefs=20_000)
    print("building the virtualized machine (host + VM + guest DMT) ...")
    sim = VirtSimulation("Redis", config)
    sim.build()  # machine attributes (vm, pv_host, ...) exist once built

    print(f"  guest working set : {sim.workload.working_set_bytes() >> 20} MiB "
          f"(paper: {sim.workload.paper_working_set_gb} GB, scaled 1/{config.scale})")
    print(f"  TLB miss rate     : {sim.tlb.miss_rate:.1%} "
          f"({sim.tlb.miss_count} walks)")
    print(f"  VM exits so far   : {sim.vm.exits.total} "
          f"(hypercalls: {sim.vm.exits.hypercalls} — one per TEA batch)")

    print("\nreplaying the identical TLB-miss stream through each design:")
    vanilla = sim.run("vanilla")
    results = {}
    for design in ("dmt", "pvdmt"):
        stats = sim.run(design)
        model = model_from_stats("Redis", "virt_npt", vanilla, stats)
        results[design] = (stats, model)
        print(f"  {design:7s}: {stats.mean_latency:7.1f} cycles/walk "
              f"({vanilla.mean_latency / stats.mean_latency:4.2f}x walk speedup, "
              f"{model.app_speedup:4.2f}x modeled app speedup, "
              f"fallback {stats.fallback_rate:.2%})")
    print(f"  vanilla: {vanilla.mean_latency:7.1f} cycles/walk "
          f"(the 24-reference 2D walk of Figure 2)")

    pv_stats, pv_model = results["pvdmt"]
    print(f"\npaper's Figure 15 (4 KB, Redis-class): pvDMT ~1.6x walk / "
          f"~1.2x app — measured {vanilla.mean_latency / pv_stats.mean_latency:.2f}x / "
          f"{pv_model.app_speedup:.2f}x at simulation scale")

    # isolation in action: the fetcher can only reach the guest's own TEAs
    from repro.core.paravirt import IsolationViolation
    try:
        sim.pv_host.gtea_table.resolve_pte_addr(999, 0)
    except IsolationViolation as exc:
        print(f"\nisolation check (§4.5.2): forged gTEA id rejected -> {exc}")


if __name__ == "__main__":
    main()
