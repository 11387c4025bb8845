"""Multi-process simulation: context switches and DMT register reloads.

The DMT registers are part of the task state: "during a context switch,
registers of the new process are reloaded" (§3, §4.1). This module
interleaves several workloads on one simulated core with a miss-quantum
scheduler, reloading the register file at each switch, so the cost and
coverage effects of context switching can be measured:

* register reloads are counted and charged into the per-design latency
  (a few hundred cycles of OS work per switch, §4.6.2's ``switch_mm``
  path — modeled, not dominant): ``mean_latency`` reflects
  ``charged_cycles = walk_cycles + register_reload_cycles`` so the
  switch cost shows up in the number designs are compared by;
* the TLB is ASID-tagged, so translations of the switched-out process
  survive (as on real x86 with PCIDs);
* the PTE-side caches are shared, so processes evict each other's
  page-table lines — the cross-process interference DMT is insensitive
  to (one fetch) but multi-level walks are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.dmt_os import DMTLinux
from repro.kernel.kernel import Kernel
from repro.obs import trace as obs_trace
from repro.sim.machine import SimConfig, _page_align
from repro.sim.simulator import make_size_lookup
from repro.sim.tlb_vec import TLBFilterStream
from repro.translation.base import MemorySubsystem, Walker
from repro.translation.dmt import DMTNativeWalker
from repro.translation.radix import NativeRadixWalker
from repro.workloads import generators

_MB = 1 << 20

#: Modeled cycles for reloading the 16 DMT registers on a switch
#: (register writes + mm_struct bookkeeping, §4.6.2).
REGISTER_RELOAD_CYCLES = 120


@dataclass
class MultiProcessStats:
    switches: int = 0
    register_reload_cycles: int = 0
    per_design: Dict[str, Dict[str, float]] = field(default_factory=dict)


class MultiProcessSimulation:
    """Several native workloads sharing one core and one cache hierarchy."""

    def __init__(self, workload_names: List[str],
                 config: Optional[SimConfig] = None,
                 quantum_misses: int = 200):
        self.config = config or SimConfig()
        self.quantum = quantum_misses
        self.workloads = [generators.get(name, self.config.scale)
                          for name in workload_names]
        total_ws = sum(w.working_set_bytes() for w in self.workloads)
        self.kernel = Kernel(memory_bytes=_page_align(total_ws * 2 + 256 * _MB),
                             thp_enabled=self.config.thp)
        self.dmt = DMTLinux(self.kernel,
                            register_count=self.config.register_count)
        self.processes = []
        self.miss_streams: List[List[int]] = []
        for workload in self.workloads:
            process = self.kernel.create_process(workload.name)
            layout = workload.install(process)
            trace = workload.generate_trace(layout, self.config.nrefs,
                                            self.config.seed)
            misses = TLBFilterStream(
                self.config.machine, make_size_lookup(process.page_table),
                asid=process.asid).feed(trace)
            self.processes.append(process)
            # plain ints: the interleaver re-slices these streams per
            # quantum and the walkers expect native integers
            self.miss_streams.append(misses.tolist())

    def _interleaved(self):
        """Yield (process index, va) in quantum-sized slices."""
        cursors = [0] * len(self.miss_streams)
        active = True
        while active:
            active = False
            for index, stream in enumerate(self.miss_streams):
                start = cursors[index]
                if start >= len(stream):
                    continue
                active = True
                for va in stream[start:start + self.quantum]:
                    yield index, va
                cursors[index] = start + self.quantum

    def run(self, design: str = "dmt") -> MultiProcessStats:
        """Replay all processes' misses with quantum-interleaved switches.

        ``per_design[design]`` reports ``walk_cycles`` (translation work
        alone), ``charged_cycles`` (walk cycles plus the register-reload
        cost of every switch), and a ``mean_latency`` computed from the
        charged total — so designs pay for the switches they cause.
        """
        stats = MultiProcessStats()
        memsys = MemorySubsystem(self.config.machine,
                                 record_refs=self.config.record_refs)
        walkers: List[Walker] = []
        for process in self.processes:
            if design == "dmt":
                fallback = NativeRadixWalker(process.page_table, memsys)
                walkers.append(DMTNativeWalker(
                    self.dmt.register_file, fallback, memsys,
                    self.kernel.memory.read_word))
            elif design == "vanilla":
                walkers.append(NativeRadixWalker(process.page_table, memsys))
            else:
                raise KeyError(f"unknown multi-process design {design!r}")

        current = -1
        walk_cycles = 0
        walks = 0
        fallbacks = 0
        with obs_trace.span("multiproc.run", design=design,
                            processes=len(self.processes)) as sp:
            for index, va in self._interleaved():
                if index != current:
                    # Context switch: the OS reloads the DMT register set,
                    # and the CR3 write flushes the (untagged) page-walk
                    # caches — the refill cost falls on multi-level walks,
                    # not on DMT.
                    self.kernel.context_switch(self.processes[index])
                    memsys.pwc.flush()
                    memsys.guest_pwc.flush()
                    stats.switches += 1
                    stats.register_reload_cycles += REGISTER_RELOAD_CYCLES
                    current = index
                result = walkers[index].translate(va)
                walk_cycles += result.cycles
                walks += 1
                if result.fallback:
                    fallbacks += 1
            if sp is not None:
                sp["walks"] = walks
                sp["switches"] = stats.switches
        # The reload cycles are part of the time the core spends on
        # translation state, so they belong in the latency designs are
        # compared by and in the denominator of the overhead fraction.
        charged_cycles = walk_cycles + stats.register_reload_cycles
        stats.per_design[design] = {
            "walks": walks,
            "walk_cycles": walk_cycles,
            "charged_cycles": charged_cycles,
            "mean_latency": charged_cycles / walks if walks else 0.0,
            "fallback_rate": fallbacks / walks if walks else 0.0,
            "switch_overhead_fraction": (
                stats.register_reload_cycles / charged_cycles
                if charged_cycles else 0.0
            ),
        }
        return stats
