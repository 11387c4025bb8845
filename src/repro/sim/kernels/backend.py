"""Backend selection for the native kernel engine.

Numba is an optional dependency: when it imports, every kernel in this
package is compiled with ``@njit(cache=True)``; when it does not, the
``jit`` decorator is the identity and the *same source* runs under the
plain interpreter. The uncompiled kernels are bit-identical by
construction but 2.5-13x slower than the vec runners (DESIGN.md §11),
so ``auto`` replays on the kernels only when numba is installed. The
parity suites still call the kernels directly, so their source is
checked uncompiled too.
"""

from __future__ import annotations

try:
    from numba import njit as _njit

    HAVE_NUMBA = True
    BACKEND = "numba"
except ImportError:  # pragma: no cover - exercised by the no-numba CI leg
    _njit = None
    HAVE_NUMBA = False
    BACKEND = "python"

def jit(func):
    """Compile ``func`` with Numba when available, else return it as is.

    Compiled kernels release the GIL (``nogil=True``): they only touch
    the flat int64/float64 state arrays checked out per cell, so the
    two-level sweep executor can replay independent (env, design) cells
    on concurrent threads of one worker process.

    Oracle: none — pure backend selection; the decorated kernels each
    declare their own scalar-oracle counterpart.
    """
    if HAVE_NUMBA:
        return _njit(cache=True, nogil=True)(func)
    return func
