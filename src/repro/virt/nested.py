"""Nested virtualization: an L1 hypervisor running inside an L0 VM (§2.1.3).

``NestedSetup`` wires the three layers of Figure 3 together:

* L0 — the bare-metal host kernel and its hypervisor;
* L1 — a VM on L0 whose guest kernel runs a second hypervisor;
* L2 — a VM created by the L1 hypervisor; its "host physical" memory is
  L1's guest-physical memory, which is itself virtualized by L0.

The baseline (vanilla nested KVM) translates L2VA -> L0PA with a 2D walk
over the L2 page table and an L0-maintained shadow table compressing
L1PT + L0PT (``NestedShadowPager``). pvDMT replaces all of that with three
direct PTE fetches (§3.2).
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.kernel import Kernel
from repro.kernel.page_table import TablePlacementPolicy
from repro.virt.hypervisor import Hypervisor
from repro.virt.shadow import NestedShadowPager


class NestedSetup:
    """L0 host -> L1 VM (running a hypervisor) -> L2 VM."""

    def __init__(
        self,
        host_kernel: Kernel,
        l1_bytes: int,
        l2_bytes: int,
        thp_enabled: bool = False,
        levels: int = 4,
        l1_ept_placement: Optional[TablePlacementPolicy] = None,
        l2_ept_placement: Optional[TablePlacementPolicy] = None,
    ):
        if l2_bytes > l1_bytes:
            raise ValueError("L2 memory cannot exceed L1 memory")
        self.host_kernel = host_kernel
        self.hv0 = Hypervisor(host_kernel)
        self.l1_vm = self.hv0.create_vm(
            l1_bytes, thp_enabled=thp_enabled, levels=levels,
            ept_placement=l1_ept_placement, name="L1",
        )
        # The L1 hypervisor runs *inside* the L1 guest kernel: its "host
        # physical memory" is L1's guest-physical domain.
        self.hv1 = Hypervisor(self.l1_vm.guest_kernel)
        self.l2_vm = self.hv1.create_vm(
            l2_bytes, thp_enabled=thp_enabled, levels=levels,
            ept_placement=l2_ept_placement, name="L2",
        )
        self.shadow: Optional[NestedShadowPager] = None

    @property
    def l2_kernel(self) -> Kernel:
        return self.l2_vm.guest_kernel

    def enable_shadow(self) -> NestedShadowPager:
        """Attach the baseline's L0-maintained L2PA -> L0PA shadow table."""
        if self.shadow is None:
            self.shadow = NestedShadowPager(self.l1_vm, self.l2_vm)
        return self.shadow

    # ------------------------------------------------------------------ #
    # Address composition helpers
    # ------------------------------------------------------------------ #

    def l2pa_to_l1pa(self, l2pa: int) -> int:
        return self.l2_vm.gpa_to_hpa(l2pa)

    def l1pa_to_l0pa(self, l1pa: int) -> int:
        return self.l1_vm.gpa_to_hpa(l1pa)

    def l2pa_to_l0pa(self, l2pa: int) -> int:
        """Full L2-physical -> machine-physical composition."""
        return self.l1pa_to_l0pa(self.l2pa_to_l1pa(l2pa))

    def total_exits(self) -> int:
        return self.l1_vm.exits.total + self.l2_vm.exits.total
