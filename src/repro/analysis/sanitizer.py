"""Runtime translation sanitizer (``--sanitize``).

dmtlint (the static half, :mod:`repro.analysis.lint`) checks conventions
the parser can see; this module checks the structural invariants that
only exist at run time. When enabled, light-weight hooks inside
``core/tea.py``, ``kernel/page_table.py``, ``hw/tlb.py``/``hw/pwc.py``
and the pvDMT/virt layers call into the probes below; when disabled
(the default) every hook is a single falsy-global test.

Invariants enforced
-------------------

* **TEA contiguity and alignment** — a TEA's VA span is granule-aligned
  and non-empty, its physical run is exactly ``npages`` frames starting
  at ``base_frame``, and after a migration every leaf table of the span
  sits at the frame DMT's register arithmetic predicts
  (:func:`check_tea`, :func:`check_tea_tables`).
* **PTE-to-frame range validity** — a leaf PTE never points a
  translation outside its memory domain, and huge-page frames are
  size-aligned (:func:`check_pte_target`).
* **No host-frame aliasing across guests in pvDMT** — a host frame
  mapped into one guest's physical space (gTEA backing) is never handed
  to a second guest of the same host memory domain
  (:func:`claim_frames` / :func:`release_frames`).
* **TLB/PWC coherence after unmap / relocation** — after a leaf PTE is
  cleared no registered TLB still holds the translation, and after a
  table relocation no registered page-walk cache still returns the old
  table's address (:func:`check_unmap_coherence`,
  :func:`check_relocate_coherence`). Structures participate by
  registering at construction (they do so automatically while the
  sanitizer is active); probes are non-mutating — no stats, no LRU
  reordering, no thinning credit.

Violations raise :class:`SanitizerError` (an ``AssertionError``
subclass, so ``pytest.raises(AssertionError)`` and plain ``assert``
habits both work).
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.arch import PAGE_SHIFT, PageSize, is_aligned

__all__ = [
    "SanitizerError",
    "enable",
    "disable",
    "reset",
    "active",
    "enabled",
    "register_tlb",
    "register_pwc",
    "check_tea",
    "check_tea_tables",
    "check_pte_target",
    "claim_frames",
    "release_frames",
    "check_unmap_coherence",
    "check_relocate_coherence",
]


class SanitizerError(AssertionError):
    """A runtime translation invariant was violated."""


_ACTIVE = False

#: :func:`enabled` scopes in progress (they nest and may overlap across
#: threads) and whether the sanitizer was on before the first of them.
_scope_lock = threading.Lock()
_scope_depth = 0
_scope_found_active = False

#: Live TLB hierarchies / page-walk caches to probe for coherence.
_tlbs: List["weakref.ref"] = []
_pwcs: List["weakref.ref"] = []

#: Host-frame ownership per memory domain: domain key -> {frame: owner}.
#: The domain key is ``id(host PhysicalMemory)`` so nested setups (whose
#: L1 "host memory" is itself guest memory of L0) never cross-talk.
_frame_claims: Dict[int, Dict[int, int]] = {}


def enable() -> None:
    global _ACTIVE
    _ACTIVE = True


def disable() -> None:
    global _ACTIVE
    _ACTIVE = False


def reset() -> None:
    """Disable and drop all registrations/claims (test isolation)."""
    disable()
    _tlbs.clear()
    _pwcs.clear()
    _frame_claims.clear()


def active() -> bool:
    return _ACTIVE


@contextmanager
def enabled():
    """Run a block with the sanitizer on, restoring prior state after.

    Scopes nest and may overlap across threads (the cells of one
    sanitized machine can replay concurrently): the first scope in
    turns the checks on, and the last one out restores what the first
    found, resetting the registrations if the sanitizer was off.
    """
    global _scope_depth, _scope_found_active
    with _scope_lock:
        if _scope_depth == 0:
            _scope_found_active = _ACTIVE
            enable()
        _scope_depth += 1
    try:
        yield
    finally:
        with _scope_lock:
            _scope_depth -= 1
            if _scope_depth == 0 and not _scope_found_active:
                reset()


# --------------------------------------------------------------------- #
# Structure registration (called from hw constructors while active)
# --------------------------------------------------------------------- #

def register_tlb(hierarchy) -> None:
    if _ACTIVE:
        _tlbs.append(weakref.ref(hierarchy))


def register_pwc(pwc) -> None:
    if _ACTIVE:
        _pwcs.append(weakref.ref(pwc))


def _live(refs: List["weakref.ref"]) -> list:
    alive = []
    dead = False
    for ref in refs:
        obj = ref()
        if obj is None:
            dead = True
        else:
            alive.append(obj)
    if dead:
        refs[:] = [ref for ref in refs if ref() is not None]
    return alive


# --------------------------------------------------------------------- #
# TEA invariants (hooked from core/tea.py)
# --------------------------------------------------------------------- #

def check_tea(tea, total_frames: Optional[int] = None) -> None:
    """Alignment + physical-run validity of one TEA."""
    if not _ACTIVE:
        return
    granule = tea.granule_bytes
    if tea.va_end <= tea.va_start:
        raise SanitizerError(f"{tea!r}: empty or inverted VA span")
    if not is_aligned(tea.va_start, granule) or not is_aligned(tea.va_end, granule):
        raise SanitizerError(
            f"{tea!r}: VA span not aligned to its {granule:#x}-byte granule"
        )
    if tea.base_frame < 0:
        raise SanitizerError(f"{tea!r}: negative base frame")
    if total_frames is not None and tea.base_frame + tea.npages > total_frames:
        raise SanitizerError(
            f"{tea!r}: physical run ends at frame "
            f"{tea.base_frame + tea.npages}, past the domain's "
            f"{total_frames} frames"
        )
    # The register arithmetic (Figure 7) must agree with the span.
    if tea.pte_addr(tea.va_start) != tea.base_frame << PAGE_SHIFT:
        raise SanitizerError(f"{tea!r}: pte_addr disagrees with base_frame")


def check_tea_tables(tea, page_table) -> None:
    """After migration: every leaf table of the span is inside the TEA.

    DMT registers compute PTE addresses with pure arithmetic over the
    TEA base (Figure 7); a leaf table left outside the contiguous run
    would make the fetcher read stale bytes while the radix walker reads
    fresh ones.
    """
    if not _ACTIVE or page_table is None:
        return
    shift = int(tea.page_size) + 9  # granule shift: 512 PTEs per table
    level = tea.page_size.leaf_level
    for granule in range(tea.va_start >> shift, tea.va_end >> shift):
        va = granule << shift
        frame = page_table.table_frame(va, level)
        if frame is None:
            continue
        want = tea.frame_for_table(va)
        if frame != want:
            raise SanitizerError(
                f"{tea!r}: leaf table for va {va:#x} at frame {frame}, "
                f"register arithmetic expects frame {want} "
                f"(non-contiguous TEA after migration)"
            )


# --------------------------------------------------------------------- #
# PTE range validity (hooked from kernel/page_table.py)
# --------------------------------------------------------------------- #

def check_pte_target(va: int, pfn: int, page_size: PageSize,
                     total_frames: int) -> None:
    """A mapped leaf PTE must stay inside its memory domain."""
    if not _ACTIVE:
        return
    span = page_size.bytes >> PAGE_SHIFT
    if pfn < 0 or pfn + span > total_frames:
        raise SanitizerError(
            f"PTE for va {va:#x} maps frames [{pfn}, {pfn + span}) outside "
            f"the domain's {total_frames} frames"
        )
    if not is_aligned(pfn, span):
        raise SanitizerError(
            f"PTE for va {va:#x}: {page_size.name} frame {pfn} is not "
            f"{span}-frame aligned"
        )


# --------------------------------------------------------------------- #
# pvDMT host-frame isolation (hooked from virt/ + core/paravirt.py)
# --------------------------------------------------------------------- #

def claim_frames(domain_key: int, base_frame: int, npages: int,
                 owner: int) -> None:
    """Record that ``owner`` (a VM id) backs ``npages`` host frames.

    Raises when any frame is already claimed by a *different* owner in
    the same host memory domain — host-frame aliasing across guests.
    """
    if not _ACTIVE:
        return
    claims = _frame_claims.setdefault(domain_key, {})
    for frame in range(base_frame, base_frame + npages):
        prior = claims.get(frame)
        if prior is not None and prior != owner:
            raise SanitizerError(
                f"host frame {frame} already backs guest {prior}, "
                f"refusing to alias it into guest {owner} (§4.5.2 isolation)"
            )
    for frame in range(base_frame, base_frame + npages):
        claims[frame] = owner


def release_frames(domain_key: int, base_frame: int, npages: int) -> None:
    if not _ACTIVE:
        return
    claims = _frame_claims.get(domain_key)
    if not claims:
        return
    for frame in range(base_frame, base_frame + npages):
        claims.pop(frame, None)


# --------------------------------------------------------------------- #
# TLB / PWC coherence (hooked from kernel/page_table.py)
# --------------------------------------------------------------------- #

def check_unmap_coherence(asid: int, va: int, page_size: PageSize) -> None:
    """After a leaf PTE is cleared, no registered TLB may still hit it.

    The simulator models shootdowns implicitly (filter and replay stages
    never interleave with unmaps); a stale hit here means a code path
    unmapped a page without invalidating live TLB state.
    """
    if not _ACTIVE:
        return
    for tlb in _live(_tlbs):
        if tlb.probe(asid, va, page_size):
            raise SanitizerError(
                f"stale TLB entry for asid {asid} va {va:#x} "
                f"({page_size.name}) after unmap — missing shootdown"
            )


def check_relocate_coherence(va: int, level: int, old_table_addr: int) -> None:
    """After a table relocation, no registered PWC may return the old
    table's address for this VA (it would walk freed memory)."""
    if not _ACTIVE:
        return
    for pwc in _live(_pwcs):
        cached = pwc.peek(va, level)
        if cached is not None and cached == old_table_addr:
            raise SanitizerError(
                f"PWC still caches old table {old_table_addr:#x} for va "
                f"{va:#x} level {level} after relocation — missing flush"
            )
