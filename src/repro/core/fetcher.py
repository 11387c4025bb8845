"""The DMT fetcher: MMU-side translation logic (§4.1, §4.5, Figure 10).

On a TLB miss the fetcher checks the DMT registers; if a mapping covers
the address it computes the last-level PTE's physical address directly
(Figure 7) and fetches it — one reference natively, two with pvDMT in a
VM, three nested. When no register covers the address (or a mapping's
P-bit is clear during TEA migration) the request falls back to the x86
page walker.

The fetcher is pure hardware logic: it reads memory through injected
callbacks and reports every reference it makes, so the simulator can
charge each through the cache hierarchy. Callbacks:

* ``read_pte(host_addr)`` — return the 8-byte PTE at a host-physical
  address;
* ``fetch(host_addr, tag, group)`` — account one memory reference
  (parallel probes share a ``group`` id, §4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.arch import PAGE_SHIFT, PageSize
from repro.core.paravirt import GTEATable
from repro.core.registers import DMTRegister, DMTRegisterFile, RegisterSet
from repro.kernel.page_table import PTE_HUGE, PTE_PRESENT, pte_frame

ReadPTE = Callable[[int], int]
Fetch = Callable[[int, str, int], None]


@dataclass
class FetchResult:
    """Outcome of one DMT translation attempt."""

    pa: Optional[int] = None
    page_size: PageSize = PageSize.SIZE_4K
    fallback: bool = False        # no covering register: use the x86 walker
    fault: bool = False           # covered, but the PTE is not present
    references: int = 0           # sequential memory references performed


def _select_leaf(candidates: List[Tuple[DMTRegister, int]]) -> Optional[Tuple[DMTRegister, int]]:
    """Pick the one valid PTE among parallel per-size probes (§4.4).

    Only the TEA of the actual page size holds a present leaf entry: a 4 KB
    register must see a non-huge PTE and a huge-page register a PS-bit PTE.
    """
    for register, pte in candidates:
        if not pte & PTE_PRESENT:
            continue
        is_huge = bool(pte & PTE_HUGE)
        if is_huge == (register.page_size != PageSize.SIZE_4K):
            return register, pte
    return None


class DMTFetcher:
    """Per-core DMT fetch logic over a register file."""

    def __init__(self, register_file: DMTRegisterFile):
        self.register_file = register_file
        self.fallbacks = 0
        self.hits = 0
        self._group = 0

    def _next_group(self) -> int:
        self._group += 1
        return self._group

    # ------------------------------------------------------------------ #
    # Native translation: one reference (§3, Figure 7)
    # ------------------------------------------------------------------ #

    # dmtlint-domain: va=any -- the host dimension feeds gPAs through this path
    def translate_native(
        self,
        va: int,
        read_pte: ReadPTE,
        fetch: Fetch,
        which: RegisterSet = RegisterSet.NATIVE,
    ) -> FetchResult:
        probe = self._probe(which, va, read_pte, fetch, tag="PTE",
                            resolve_addr=None)
        if probe is None:
            self.fallbacks += 1
            return FetchResult(fallback=True)
        selected = _select_leaf(probe)
        if selected is None:
            return FetchResult(fault=True, references=1)
        register, pte = selected
        self.hits += 1
        size = register.page_size
        pa = (pte_frame(pte) << PAGE_SHIFT) + (va & (size.bytes - 1))
        return FetchResult(pa=pa, page_size=size, references=1)

    # dmtlint-domain: va=any -- the host dimension feeds gPAs through this path
    def _peek_native(self, va: int, read_pte: ReadPTE,
                     which: RegisterSet) -> Optional[int]:
        """Resolve ``va`` through a register set *without* charging fetches.

        Used to identify the winning candidate among parallel per-size
        probes before charging the critical path. Returns the physical
        address, or None when uncovered/unmapped.
        """
        for register in self.register_file.lookup(which, va):
            pte = read_pte(register.pte_addr(va))
            if not pte & PTE_PRESENT:
                continue
            is_huge = bool(pte & PTE_HUGE)
            if is_huge == (register.page_size != PageSize.SIZE_4K):
                from repro.kernel.page_table import pte_frame as _pf
                return (_pf(pte) << PAGE_SHIFT) + (va & (register.page_size.bytes - 1))
        return None

    def _probe(
        self,
        which: RegisterSet,
        va: int,
        read_pte: ReadPTE,
        fetch: Fetch,
        tag: str,
        resolve_addr: Optional[Callable[[DMTRegister, int], int]],
    ) -> Optional[List[Tuple[DMTRegister, int]]]:
        """Fetch the candidate leaf PTEs for ``va`` (one per page size).

        With multiple page-size TEAs the probes go out in parallel and the
        translation completes when the probe holding the valid leaf
        returns (§4.4: "only one PTE will be fetched" — only one TEA holds
        the actual translation); only that access is charged. On a full
        miss every probe must return before faulting, so the slowest one
        bounds latency (the probes share a group).
        """
        registers = self.register_file.lookup(which, va)
        if not registers:
            return None
        candidates = []
        for register in registers:
            if resolve_addr is not None:
                addr = resolve_addr(register, va)
            else:
                addr = register.pte_addr(va)
            candidates.append((register, read_pte(addr), addr))
        selected = _select_leaf([(reg, pte) for reg, pte, _ in candidates])
        group = self._next_group()
        if selected is None:
            for register, pte, addr in candidates:
                fetch(addr, tag, group)
        else:
            winner = selected[0]
            for register, pte, addr in candidates:
                if register is winner:
                    fetch(addr, tag, group)
        return [(reg, pte) for reg, pte, _ in candidates]

    # ------------------------------------------------------------------ #
    # pvDMT virtualized translation: two references (§3.1, §4.5.1)
    # ------------------------------------------------------------------ #

    def translate_virt_pv(
        self,
        gva: int,
        gtea_table: GTEATable,
        read_pte: ReadPTE,
        fetch: Fetch,
        guest_set: RegisterSet = RegisterSet.GUEST,
        host_set: RegisterSet = RegisterSet.NATIVE,
    ) -> FetchResult:
        """gVA -> hPA with host-contiguous gTEAs.

        Reference 1 fetches the gPTE: its host address comes from the gTEA
        table via the register's gTEA ID (the table lookup is register
        state, not a memory reference). Reference 2 fetches the hPTE that
        maps the resulting gPA.
        """

        def resolve(register: DMTRegister, va: int) -> int:
            offset = (va - register.vma_base) >> int(register.page_size)
            return gtea_table.resolve_pte_addr(register.gtea_id, offset * 8)

        probe = self._probe(guest_set, gva, read_pte, fetch, tag="gPTE",
                            resolve_addr=resolve)
        if probe is None:
            self.fallbacks += 1
            return FetchResult(fallback=True)
        selected = _select_leaf(probe)
        if selected is None:
            return FetchResult(fault=True, references=1)
        g_register, gpte = selected
        g_size = g_register.page_size
        gpa = (pte_frame(gpte) << PAGE_SHIFT) + (gva & (g_size.bytes - 1))

        host = self.translate_native(gpa, read_pte, fetch, which=host_set)
        if host.fallback or host.fault:
            return FetchResult(fallback=host.fallback, fault=host.fault,
                               references=1 + host.references)
        self.hits += 1
        return FetchResult(pa=host.pa, page_size=g_size,
                           references=1 + host.references)

    # ------------------------------------------------------------------ #
    # DMT (non-pv) virtualized translation: three references (§3.1)
    # ------------------------------------------------------------------ #

    def translate_virt(
        self,
        gva: int,
        read_pte: ReadPTE,
        fetch: Fetch,
        guest_set: RegisterSet = RegisterSet.GUEST,
        host_set: RegisterSet = RegisterSet.NATIVE,
    ) -> FetchResult:
        """gVA -> hPA without paravirtualization.

        The gVMA-to-gTEA mapping yields the *guest-physical* address of the
        gPTE; reference 1 fetches the hPTE mapping that gPA (to learn the
        gPTE's host address), reference 2 fetches the gPTE itself, and
        reference 3 fetches the hPTE of the data page.
        """
        g_registers = self.register_file.lookup(guest_set, gva)
        if not g_registers:
            self.fallbacks += 1
            return FetchResult(fallback=True)

        # Per-size candidates resolve in parallel; only the candidate that
        # holds the valid leaf is on the critical path (ref 1 fetches the
        # hPTE locating it, ref 2 fetches the gPTE itself). Peek at the
        # values first to identify the winner, then charge its chain.
        candidates = []
        for register in g_registers:
            gpte_gpa = register.pte_addr(gva)  # arithmetic only
            peek = self._peek_native(gpte_gpa, read_pte, host_set)
            if peek is None:
                continue
            candidates.append((register, read_pte(peek), gpte_gpa))
        if not candidates:
            # no host coverage for any candidate: the x86 walker takes over
            self.fallbacks += 1
            return FetchResult(fallback=True)
        selected = _select_leaf([(reg, pte) for reg, pte, _ in candidates])
        if selected is None:
            # genuine fault: the probes still cost one chain
            gpte_gpa = candidates[0][2]
            host = self.translate_native(gpte_gpa, read_pte, fetch,
                                         which=host_set)
            return FetchResult(fault=True, references=host.references + 1)
        g_register, gpte = selected
        gpte_gpa = next(gpa for reg, _, gpa in candidates if reg is g_register)
        host = self.translate_native(gpte_gpa, read_pte, fetch,
                                     which=host_set)
        if host.fallback or host.fault or host.pa is None:
            return FetchResult(fallback=host.fallback, fault=host.fault,
                               references=host.references)
        fetch(host.pa, "gPTE", self._next_group())
        refs = host.references + 1
        g_size = g_register.page_size
        gpa = (pte_frame(gpte) << PAGE_SHIFT) + (gva & (g_size.bytes - 1))

        host = self.translate_native(gpa, read_pte, fetch, which=host_set)
        if host.fallback or host.fault:
            return FetchResult(fallback=host.fallback, fault=host.fault,
                               references=refs + host.references)
        self.hits += 1
        return FetchResult(pa=host.pa, page_size=g_size,
                           references=refs + host.references)

    # ------------------------------------------------------------------ #
    # pvDMT nested translation: three references (§3.2, §4.5.3)
    # ------------------------------------------------------------------ #

    def translate_nested_pv(
        self,
        l2va: int,
        l2_gtea_table: GTEATable,
        l1_gtea_table: GTEATable,
        read_pte: ReadPTE,
        fetch: Fetch,
    ) -> FetchResult:
        """L2VA -> L0PA: L2PTE, then L1PTE, then L0PTE — all TEAs L0-contiguous."""

        def resolve_l2(register: DMTRegister, va: int) -> int:
            offset = (va - register.vma_base) >> int(register.page_size)
            return l2_gtea_table.resolve_pte_addr(register.gtea_id, offset * 8)

        probe = self._probe(RegisterSet.NESTED, l2va, read_pte, fetch,
                            tag="L2PTE", resolve_addr=resolve_l2)
        if probe is None:
            self.fallbacks += 1
            return FetchResult(fallback=True)
        selected = _select_leaf(probe)
        if selected is None:
            return FetchResult(fault=True, references=1)
        l2_register, l2pte = selected
        l2_size = l2_register.page_size
        l2pa = (pte_frame(l2pte) << PAGE_SHIFT) + (l2va & (l2_size.bytes - 1))

        def resolve_l1(register: DMTRegister, va: int) -> int:
            offset = (va - register.vma_base) >> int(register.page_size)
            return l1_gtea_table.resolve_pte_addr(register.gtea_id, offset * 8)

        probe = self._probe(RegisterSet.GUEST, l2pa, read_pte, fetch,
                            tag="L1PTE", resolve_addr=resolve_l1)
        if probe is None:
            self.fallbacks += 1
            return FetchResult(fallback=True, references=1)
        selected = _select_leaf(probe)
        if selected is None:
            return FetchResult(fault=True, references=2)
        l1_register, l1pte = selected
        l1pa = (pte_frame(l1pte) << PAGE_SHIFT) + (l2pa & (l1_register.page_size.bytes - 1))

        host = self.translate_native(l1pa, read_pte, fetch,
                                     which=RegisterSet.NATIVE)
        if host.fallback or host.fault:
            return FetchResult(fallback=host.fallback, fault=host.fault,
                               references=2 + host.references)
        self.hits += 1
        return FetchResult(pa=host.pa, page_size=l2_size,
                           references=2 + host.references)
