"""Unified observability layer: trace spans and the regression gate.

Two cooperating pieces (DESIGN.md §9):

* :mod:`repro.obs.trace` — nested wall-time/RSS spans emitted as a JSONL
  event stream, enabled with ``--trace <path>`` on ``run``/``sweep``.
* :mod:`repro.obs.regress` — the bench-regression gate behind
  ``python -m repro regress``: compares the current ``BENCH_engine.json``
  and a sweep document against archived baselines and appends to
  ``BENCH_trajectory.json`` on clean runs.

Statistics are not kept here: every counter (TLB, cache and PWC hits,
walker walks and cycles, fetcher hits, stage-1 memo reuse, artifact
cache hits) is a plain attribute on the structure that keeps it, and a
sweep's own counts are in its document's ``meta.metrics``.

The package deliberately imports nothing from the rest of ``repro`` so
every layer (``hw``, ``translation``, ``core``, ``sim``) can instrument
itself without creating import cycles.
"""

from repro.obs import regress, trace

__all__ = ["regress", "trace"]
