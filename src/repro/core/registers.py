"""DMT registers: the per-core VMA-to-TEA mapping state (Figure 13, §4.1).

Each register packs a VMA-to-TEA mapping into 192 bits:

* ``VMA Base VPN`` — virtual page number of the mapped region's base;
* ``TEA Base PFN`` — physical frame of the TEA holding its last-level PTEs;
* ``VMA Size`` — region size in pages of the mapping's page size;
* ``SZ`` — 2-bit page-size code (4 KB / 2 MB / 1 GB, §4.4);
* ``P`` — present bit; cleared during TEA migration so translation falls
  back to the x86 walker (§4.6.1);
* ``gTEA ID`` — pvDMT only: index into the host-maintained gTEA table.

A core has three sets of 16 registers — native, guest, and nested — each
usable only by its own virtualization level (§4.6.1). Registers are part
of the task state: the OS reloads them on context switches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.arch import PAGE_SHIFT, PageSize

REGISTERS_PER_SET = 16

# --- 192-bit packed layout ------------------------------------------------
_VPN_BITS = 52        # word 0: VMA base VPN (page-size granules)
_PFN_BITS = 52        # word 1: TEA base PFN
_SIZE_BITS = 44       # word 2[43:0]:   VMA size in pages of SZ granularity
_GTEA_ID_BITS = 12    # word 2[55:44]:  gTEA ID
_SZ_SHIFT = 56        # word 2[57:56]:  SZ field
_P_SHIFT = 58         # word 2[58]:     present bit


class RegisterSet(enum.Enum):
    """Which of the three per-core register sets a mapping lives in."""

    NATIVE = "native"
    GUEST = "guest"
    NESTED = "nested"


@dataclass(frozen=True)
class DMTRegister:
    """One decoded VMA-to-TEA mapping register."""

    vma_base_vpn: int          # in units of the mapping's page size
    tea_base_pfn: int          # 4 KB frame number of the TEA base
    vma_size_pages: int        # in units of the mapping's page size
    page_size: PageSize = PageSize.SIZE_4K
    present: bool = True
    gtea_id: Optional[int] = None   # pvDMT: index into the gTEA table

    def __post_init__(self):
        # The VMA's byte bounds (Figure 7), computed once: ``covers`` runs
        # for every register of a set on every lookup. Plain attributes,
        # not fields, so equality, ``repr`` and the encoding are unchanged.
        shift = int(self.page_size)
        object.__setattr__(self, "vma_base", self.vma_base_vpn << shift)
        object.__setattr__(self, "vma_end",
                           (self.vma_base_vpn + self.vma_size_pages) << shift)

    # ------------------------------------------------------------------ #
    # Encoding (Figure 13)
    # ------------------------------------------------------------------ #

    def encode(self) -> int:
        """Pack into the 192-bit architectural format."""
        if self.vma_base_vpn >= 1 << _VPN_BITS:
            raise ValueError("VMA base VPN overflows the register field")
        if self.tea_base_pfn >= 1 << _PFN_BITS:
            raise ValueError("TEA base PFN overflows the register field")
        if self.vma_size_pages >= 1 << _SIZE_BITS:
            raise ValueError("VMA size overflows the register field")
        word0 = self.vma_base_vpn
        word1 = self.tea_base_pfn
        word2 = self.vma_size_pages
        word2 |= (self.gtea_id if self.gtea_id is not None else 0) << _SIZE_BITS
        word2 |= self.page_size.sz_field() << _SZ_SHIFT
        word2 |= int(self.present) << _P_SHIFT
        return word0 | (word1 << 64) | (word2 << 128)

    @classmethod
    def decode(cls, raw: int, paravirt: bool = False) -> "DMTRegister":
        word0 = raw & ((1 << 64) - 1)
        word1 = (raw >> 64) & ((1 << 64) - 1)
        word2 = raw >> 128
        gtea_id = (word2 >> _SIZE_BITS) & ((1 << _GTEA_ID_BITS) - 1)
        return cls(
            vma_base_vpn=word0,
            tea_base_pfn=word1,
            vma_size_pages=word2 & ((1 << _SIZE_BITS) - 1),
            page_size=PageSize.from_sz_field((word2 >> _SZ_SHIFT) & 0x3),
            present=bool((word2 >> _P_SHIFT) & 1),
            gtea_id=gtea_id if paravirt else None,
        )

    # ------------------------------------------------------------------ #
    # Translation arithmetic (Figure 7)
    # ------------------------------------------------------------------ #

    def covers(self, va: int) -> bool:
        return self.vma_base <= va < self.vma_end

    def pte_addr(self, va: int, tea_base_addr: Optional[int] = None) -> int:
        """Physical address of the last-level PTE for ``va``.

        Step 1 of Figure 7 computes the VPN offset inside the VMA; step 2
        indexes the TEA by that offset (8 bytes per PTE). ``tea_base_addr``
        overrides the register's TEA base — pvDMT passes the host base
        looked up in the gTEA table.
        """
        if not self.covers(va):
            raise ValueError(f"va {va:#x} outside register range")
        offset = (va - self.vma_base) >> int(self.page_size)
        base = tea_base_addr if tea_base_addr is not None \
            else self.tea_base_pfn << PAGE_SHIFT
        return base + offset * 8


class DMTRegisterFile:
    """The three per-core sets of 16 registers.

    ``lookup`` returns every present mapping covering an address: a VMA
    backed by several page sizes has one register per size and the fetcher
    probes all of them in parallel (§4.4).
    """

    def __init__(self, registers_per_set: int = REGISTERS_PER_SET):
        self.registers_per_set = registers_per_set
        self._sets: Dict[RegisterSet, List[Optional[DMTRegister]]] = {
            rs: [None] * registers_per_set for rs in RegisterSet
        }
        #: pvDMT: base host-physical address of the gTEA table for the
        #: currently running guest (part of the register state, Fig. 13).
        self.gtea_table_base: Optional[int] = None
        self.reloads = 0

    def load(self, which: RegisterSet, registers: List[DMTRegister]) -> None:
        """Reload a whole set (context switch / VM entry, §4.1)."""
        if len(registers) > self.registers_per_set:
            raise ValueError(
                f"{len(registers)} mappings exceed the {self.registers_per_set}-register set"
            )
        slots: List[Optional[DMTRegister]] = [None] * self.registers_per_set
        slots[: len(registers)] = registers
        self._sets[which] = slots
        self.reloads += 1

    def clear(self, which: RegisterSet) -> None:
        self._sets[which] = [None] * self.registers_per_set

    def registers(self, which: RegisterSet) -> List[DMTRegister]:
        return [reg for reg in self._sets[which] if reg is not None]

    def lookup(self, which: RegisterSet, va: int) -> List[DMTRegister]:
        return [
            reg
            for reg in self._sets[which]
            if reg is not None and reg.present and reg.covers(va)
        ]

    def covered(self, which: RegisterSet, va: int) -> bool:
        return bool(self.lookup(which, va))
