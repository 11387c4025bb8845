"""Tests for the DMT register file (Figure 13)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import PAGE_SHIFT, PageSize
from repro.core.registers import (
    DMTRegister,
    DMTRegisterFile,
    REGISTERS_PER_SET,
    RegisterSet,
)


def reg(base_vpn=0x7F000, size_pages=1024, tea_pfn=0x100,
        page_size=PageSize.SIZE_4K, present=True, gtea_id=None):
    return DMTRegister(base_vpn, tea_pfn, size_pages, page_size, present, gtea_id)


class TestEncoding:
    def test_encode_fits_192_bits(self):
        raw = reg().encode()
        assert raw < 1 << 192

    def test_roundtrip(self):
        original = reg(gtea_id=7, page_size=PageSize.SIZE_2M, present=False)
        decoded = DMTRegister.decode(original.encode(), paravirt=True)
        assert decoded == original

    def test_non_pv_decode_drops_gtea(self):
        decoded = DMTRegister.decode(reg(gtea_id=7).encode(), paravirt=False)
        assert decoded.gtea_id is None

    def test_field_overflow_rejected(self):
        with pytest.raises(ValueError):
            reg(base_vpn=1 << 52).encode()
        with pytest.raises(ValueError):
            reg(tea_pfn=1 << 52).encode()
        with pytest.raises(ValueError):
            reg(size_pages=1 << 44).encode()

    @given(
        st.integers(0, (1 << 52) - 1),
        st.integers(0, (1 << 52) - 1),
        st.integers(1, (1 << 44) - 1),
        st.sampled_from(list(PageSize)),
        st.booleans(),
        st.integers(0, 4095),
    )
    @settings(max_examples=100)
    def test_roundtrip_property(self, vpn, pfn, size, psize, present, gtea):
        original = DMTRegister(vpn, pfn, size, psize, present, gtea)
        assert DMTRegister.decode(original.encode(), paravirt=True) == original


class TestTranslationArithmetic:
    def test_figure7_pte_address(self):
        # VMA at 0x7F000*4K, TEA at frame 0x100: page i's PTE is at
        # TEA_base + i*8 (Figure 7).
        register = reg()
        va = register.vma_base + 5 * 4096 + 0x123
        assert register.pte_addr(va) == (0x100 << PAGE_SHIFT) + 5 * 8

    def test_huge_page_indexing(self):
        register = reg(page_size=PageSize.SIZE_2M, base_vpn=0x200, size_pages=64)
        va = register.vma_base + 3 * (2 << 20) + 0x5555
        assert register.pte_addr(va) == (0x100 << PAGE_SHIFT) + 3 * 8

    def test_pte_addr_with_override_base(self):
        # pvDMT resolves the base through the gTEA table instead
        register = reg()
        va = register.vma_base + 4096
        assert register.pte_addr(va, tea_base_addr=0xAB000) == 0xAB000 + 8

    def test_covers(self):
        register = reg(base_vpn=0x100, size_pages=2)
        assert register.covers(0x100 << 12)
        assert register.covers((0x102 << 12) - 1)
        assert not register.covers(0x102 << 12)
        with pytest.raises(ValueError):
            register.pte_addr(0x102 << 12)

    @given(
        st.integers(0, (1 << 36) - 1),
        st.integers(1, (1 << 24) - 1),
        st.sampled_from(list(PageSize)),
        st.booleans(),
        st.integers(-2, 2),
    )
    @settings(max_examples=200)
    def test_covers_matches_figure7_property(self, vpn, size, psize,
                                             at_end, nudge):
        """A decoded register covers exactly the VAs whose VPN offset
        inside the VMA (Figure 7, step 1) lies in ``[0, size)``."""
        decoded = DMTRegister.decode(
            DMTRegister(vpn, 0x100, size, psize).encode())
        shift = int(psize)
        va = ((vpn + size if at_end else vpn) << shift) + nudge
        offset = (va >> shift) - decoded.vma_base_vpn
        assert decoded.covers(va) == (0 <= offset < decoded.vma_size_pages)
        if decoded.covers(va):
            assert decoded.pte_addr(va) == (0x100 << PAGE_SHIFT) + offset * 8


class TestRegisterFile:
    def test_three_sets_of_sixteen(self):
        rf = DMTRegisterFile()
        assert REGISTERS_PER_SET == 16
        for which in RegisterSet:
            assert rf.registers(which) == []

    def test_load_and_lookup(self):
        rf = DMTRegisterFile()
        rf.load(RegisterSet.NATIVE, [reg()])
        hits = rf.lookup(RegisterSet.NATIVE, 0x7F000 << 12)
        assert len(hits) == 1
        assert rf.lookup(RegisterSet.GUEST, 0x7F000 << 12) == []

    def test_overflow_rejected(self):
        rf = DMTRegisterFile()
        with pytest.raises(ValueError):
            rf.load(RegisterSet.NATIVE, [reg()] * 17)

    def test_present_bit_gates_lookup(self):
        rf = DMTRegisterFile()
        rf.load(RegisterSet.NATIVE, [reg(present=False)])
        assert not rf.covered(RegisterSet.NATIVE, 0x7F000 << 12)

    def test_multi_size_parallel_lookup(self):
        # a VMA with both 4K and 2M TEAs has one register per size (§4.4)
        rf = DMTRegisterFile()
        rf.load(RegisterSet.NATIVE, [
            reg(base_vpn=0x40000000 >> 12, size_pages=1024),
            reg(base_vpn=0x40000000 >> 21, size_pages=2,
                page_size=PageSize.SIZE_2M, tea_pfn=0x200),
        ])
        assert len(rf.lookup(RegisterSet.NATIVE, 0x40000000)) == 2

    def test_reload_replaces_set(self):
        rf = DMTRegisterFile()
        rf.load(RegisterSet.NATIVE, [reg()])
        rf.load(RegisterSet.NATIVE, [reg(base_vpn=0x999)])
        assert len(rf.registers(RegisterSet.NATIVE)) == 1
        assert rf.reloads == 2

    def test_clear(self):
        rf = DMTRegisterFile()
        rf.load(RegisterSet.GUEST, [reg()])
        rf.clear(RegisterSet.GUEST)
        assert rf.registers(RegisterSet.GUEST) == []
