"""dmtlint L7: streaming hygiene — no whole-trace materialization.

The streaming stage-0→1 pipeline (DESIGN.md §13) exists so that a
multi-gigabyte trace never lives in memory at once: generators yield
fixed-size chunks, the TLB filter carries state across them, and each
chunk's misses land in one preallocated buffer. One careless
``np.concatenate(chunks)`` quietly restores the monolithic footprint
while every test still passes — the results are bit-identical either
way, so only memory telemetry (or this rule) notices.

L7 findings
-----------
* ``L701`` — a materializing call (``np.concatenate``/``vstack``/
  ``hstack``/``stack``/``fromiter``, builtin ``list``/``tuple``) whose
  argument mentions a chunk/segment/piece-named value inside
  streaming-scoped code: it gathers the whole stream into memory.
* ``L702`` — ``.copy()`` / ``.tolist()`` on a chunk/segment-named
  expression: duplicates a chunk (or worse, boxes it into Python
  objects) instead of processing it in place.

Scope: ``streaming`` — the stage-0/1 streaming path (``sim/tlb_vec.py``,
``sim/machine.py``, ``sim/artifacts.py``, ``workloads/base.py``,
``workloads/generators.py``) or any file carrying the
``# dmtlint-scope: streaming`` pragma. Whole-stream assembly that is
deliberate (a bounded test, the final preallocated copy) is annotated
``# dmtlint: ignore[L701]`` at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.lint.engine import FileContext, Rule, Violation

#: Identifier fragments (underscore-split, lowercased) that mark a value
#: as one chunk/segment of a stream, or the stream of them.
CHUNK_TOKENS = frozenset({
    "chunk", "chunks", "piece", "pieces", "segment", "segments",
    "seg", "segs", "stream", "streams",
})

#: Calls that gather an iterable of chunks into one in-memory object.
_MATERIALIZERS = frozenset({
    "np.concatenate", "numpy.concatenate", "np.vstack", "numpy.vstack",
    "np.hstack", "numpy.hstack", "np.stack", "numpy.stack",
    "np.fromiter", "numpy.fromiter", "np.append", "numpy.append",
    "list", "tuple",
})

#: Methods that duplicate a chunk (`copy`) or box it (`tolist`).
_DUPLICATORS = frozenset({"copy", "tolist"})


def _tokens(name: str) -> Set[str]:
    return set(name.lower().split("_"))


def _dotted(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _chunk_mention(node: ast.AST) -> Optional[str]:
    """The first chunk-named identifier inside ``node``, if any."""
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.arg):
        name = node.arg
    if name and _tokens(name) & CHUNK_TOKENS:
        return name
    for child in ast.iter_child_nodes(node):
        found = _chunk_mention(child)
        if found:
            return found
    return None


class L7StreamingHygiene(Rule):
    """No whole-stream materialization inside streaming-scoped code."""

    family = "L7"
    scope = "streaming"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        path = str(ctx.path)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in _MATERIALIZERS:
                for arg in node.args:
                    name = _chunk_mention(arg)
                    if name:
                        yield Violation(
                            "L701", path, node.lineno, node.col_offset,
                            f"{dotted}() on chunk-valued '{name}' "
                            f"materializes the whole stream in memory; "
                            f"preallocate and fill per chunk, or process "
                            f"segments one at a time",
                        )
                        break
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _DUPLICATORS and not node.args:
                name = _chunk_mention(node.func.value)
                if name:
                    yield Violation(
                        "L702", path, node.lineno, node.col_offset,
                        f".{node.func.attr}() on chunk-valued '{name}' "
                        f"duplicates the chunk instead of processing it "
                        f"in place",
                    )
