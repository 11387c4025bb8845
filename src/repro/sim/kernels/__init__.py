"""Native-compiled stage-2 replay kernels (the batched replay's ``native``
backend).

The batched engine in :mod:`repro.sim.walk_vec` still executes its
chunked state machine per-reference in the Python interpreter over
``batch_view()`` dicts. This package replaces that hot loop with
preallocated flat ndarray state (``array_view()`` on the caches, PWCs
and the ECPT cuckoo-walk cache) and per-design chunk kernels that are
JIT-compiled with Numba ``@njit(cache=True)``. ``auto`` uses them only
with Numba; without it the *same source* still runs uncompiled when
called directly, which is how the parity suites check it without Numba
(:mod:`repro.sim.kernels.backend`). Compiled kernels are ``nogil``, so
a sweep's cells can replay on concurrent threads and overlap
(DESIGN.md §15).

Entry point: :func:`repro.sim.walk_vec.replay_batched`, whose kernel
half is :mod:`repro.sim.kernels.replay`, reached through
``replay_walks(..., engine="auto")`` when Numba is installed;
:func:`~repro.sim.kernels.replay.replay_walks_native` forces it.
DESIGN.md §11 documents the architecture and the array-view writeback
contract.
"""

from repro.sim.kernels.backend import (  # noqa: F401
    BACKEND,
    HAVE_NUMBA,
    jit,
)
from repro.sim.kernels.replay import replay_walks_native  # noqa: F401
