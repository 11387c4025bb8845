"""dmtlint rule family L6: kernel nopython-purity analysis.

The native replay kernels (``sim/kernels/``) are compiled with Numba's
``@njit`` when it is importable and run as plain Python otherwise. A
kernel edit that leaves the nopython-compilable subset therefore passes
every test on a numba-less machine and only explodes at JIT time on the
numba CI leg (or a user's box). L6 closes that gap statically: every
``@jit``-decorated function in a ``kernels``-scoped file is checked
against the nopython-safe subset, so ``python -m repro lint`` catches
compile breakage with no numba installed.

Findings (one id per violation class):

* ``L601`` — dict/set construction (literals, comprehensions,
  ``dict()``/``set()``/``frozenset()``): unsupported in nopython mode.
* ``L602`` — closures: nested ``def``/``lambda`` inside a kernel.
* ``L603`` — ``*args``/``**kwargs`` in the signature, or star/double-star
  argument splatting at a call site.
* ``L604`` — string formatting (f-strings, ``%`` on strings,
  ``.format()``): kernels compute over flat int/float arrays only.
* ``L605`` — untyped containers: list literals/comprehensions or
  ``list()``; kernels preallocate ndarrays instead of growing reflected
  lists.
* ``L606`` — exception handling beyond the supported form:
  ``try``/``with`` blocks, bare ``raise``, non-whitelisted exception
  classes, or exception arguments that are not compile-time constants.
* ``L607`` — a call outside the whitelist: pure builtins, whitelisted
  ``np.*`` constructors/math, and kernels defined in (or imported from)
  the ``sim/kernels`` package.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.analysis.lint.engine import FileContext, Rule, Violation

#: Builtins Numba supports in nopython mode and kernels may freely use.
PURE_BUILTINS = frozenset({
    "range", "len", "abs", "min", "max", "int", "float", "bool", "round",
    "divmod", "enumerate", "zip",
})

#: ``np.*`` attributes kernels may call: array constructors and scalar
#: casts/math with well-defined nopython typing.
NUMPY_WHITELIST = frozenset({
    "empty", "zeros", "ones", "full", "empty_like", "zeros_like",
    "full_like", "arange", "int8", "int32", "int64", "uint8", "uint32",
    "uint64", "float32", "float64", "bool_", "sqrt", "floor", "ceil",
    "log2", "minimum", "maximum", "abs", "searchsorted",
})

#: Exception classes ``raise`` may instantiate (with constant args).
EXCEPTION_WHITELIST = frozenset({
    "ValueError", "RuntimeError", "IndexError", "AssertionError",
    "TypeError", "ZeroDivisionError", "OverflowError",
})

#: Names flagged by the container rules, excluded from L607's generic
#: call check so one ``dict()`` does not produce two findings.
_CONTAINER_CTORS = frozenset({"dict", "set", "frozenset", "list"})

_KERNELS_PACKAGE = "repro.sim.kernels"


def _dotted(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _is_jit_decorator(dec: ast.AST) -> bool:
    """Match ``@jit``, ``@njit``, ``@backend.jit``, ``@njit(cache=True)``
    and underscore-prefixed stand-ins used by fixtures."""
    if isinstance(dec, ast.Call):
        dec = dec.func
    name = dec.attr if isinstance(dec, ast.Attribute) else \
        getattr(dec, "id", "")
    return name.lstrip("_") in ("jit", "njit")


class L6KernelPurity(Rule):
    """Every compiled kernel stays inside the nopython-safe subset."""

    family = "L6"
    scope = "kernels"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        allowed_local = self._local_kernel_names(ctx.tree)
        out: List[Violation] = []
        for node in ast.iter_child_nodes(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(_is_jit_decorator(d) for d in node.decorator_list):
                out.extend(self._check_kernel(ctx, node, allowed_local))
        return out

    @staticmethod
    def _local_kernel_names(tree: ast.AST) -> Set[str]:
        """Callable names a kernel may legally reach: sibling kernels in
        this file plus names imported from the kernels package."""
        names: Set[str] = set()
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.startswith(_KERNELS_PACKAGE):
                names.update(alias.asname or alias.name
                             for alias in node.names)
        return names

    # ------------------------------------------------------------------ #

    def _check_kernel(self, ctx: FileContext, func: ast.FunctionDef,
                      allowed_local: Set[str]) -> Iterable[Violation]:
        path = str(ctx.path)
        kernel = func.name
        out: List[Violation] = []

        def emit(rule: str, node: ast.AST, message: str) -> None:
            out.append(Violation(rule, path, node.lineno, node.col_offset,
                                 f"kernel '{kernel}': {message}",
                                 evidence=f"kernel={kernel}"))

        args = func.args
        if args.vararg is not None:
            emit("L603", func, "*args is not nopython-compilable; "
                               "pass a fixed arity of flat arrays")
        if args.kwarg is not None:
            emit("L603", func, "**kwargs is not nopython-compilable; "
                               "pass a fixed arity of flat arrays")

        allowed_raise_calls: Set[int] = set()
        for node in ast.walk(func):
            if node is func:
                continue
            if isinstance(node, (ast.Dict, ast.DictComp)):
                emit("L601", node, "dict construction is unsupported in "
                                   "nopython mode; use parallel flat arrays")
            elif isinstance(node, (ast.Set, ast.SetComp)):
                emit("L601", node, "set construction is unsupported in "
                                   "nopython mode; use a sorted array or "
                                   "bitmask")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                emit("L602", node, "closures/nested functions do not "
                                   "compile; hoist to a module-level @jit "
                                   "kernel")
            elif isinstance(node, ast.JoinedStr):
                emit("L604", node, "f-string formatting is unsupported in "
                                   "nopython mode")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
                    and any(isinstance(side, ast.Constant)
                            and isinstance(side.value, str)
                            for side in (node.left, node.right)):
                emit("L604", node, "%-style string formatting is unsupported "
                                   "in nopython mode")
            elif isinstance(node, (ast.List, ast.ListComp)):
                emit("L605", node, "untyped/reflected lists do not compile "
                                   "reliably; preallocate an ndarray")
            elif isinstance(node, ast.Try):
                emit("L606", node, "try/except is outside the supported "
                                   "nopython subset; hoist error handling "
                                   "to the replay driver")
            elif isinstance(node, ast.With):
                emit("L606", node, "context managers are unsupported in "
                                   "nopython mode")
            elif isinstance(node, ast.Raise):
                allowed_raise_calls.update(
                    self._check_raise(node, emit))
            elif isinstance(node, ast.Call):
                if id(node) in allowed_raise_calls:
                    continue
                self._check_call(node, allowed_local, emit)
        return out

    @staticmethod
    def _check_raise(node: ast.Raise, emit) -> Set[int]:
        """Validate one raise; returns call ids L607 should skip."""
        exc = node.exc
        if exc is None:
            emit("L606", node, "bare re-raise is unsupported in nopython "
                               "mode")
            return set()
        if isinstance(exc, ast.Call):
            name = _dotted(exc.func)
            if name not in EXCEPTION_WHITELIST:
                emit("L606", node, f"raising {name or 'a computed exception'}"
                                   f" is outside the supported nopython "
                                   f"subset")
            elif not all(isinstance(arg, ast.Constant) for arg in exc.args) \
                    or exc.keywords:
                emit("L606", node, "exception arguments must be compile-time "
                                   "constants in nopython mode")
            return {id(exc)}
        if isinstance(exc, ast.Name) and exc.id in EXCEPTION_WHITELIST:
            return set()
        emit("L606", node, "only whitelisted exception classes may be "
                           "raised in nopython mode")
        return set()

    @staticmethod
    def _check_call(node: ast.Call, allowed_local: Set[str], emit) -> None:
        if any(isinstance(arg, ast.Starred) for arg in node.args) or \
                any(kw.arg is None for kw in node.keywords):
            emit("L603", node, "star/double-star argument splatting is not "
                               "nopython-compilable")
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in _CONTAINER_CTORS:
                rule = "L605" if name == "list" else "L601"
                emit(rule, node, f"{name}() construction is unsupported in "
                                 f"nopython mode")
            elif name not in PURE_BUILTINS and name not in allowed_local \
                    and name not in EXCEPTION_WHITELIST:
                emit("L607", node, f"call to '{name}' is outside the kernel "
                                   f"whitelist (pure builtins, np.* "
                                   f"constructors, sibling kernels)")
        elif isinstance(func, ast.Attribute):
            dotted = _dotted(func)
            root = dotted.split(".")[0]
            if root in ("np", "numpy"):
                if func.attr not in NUMPY_WHITELIST:
                    emit("L607", node, f"'{dotted}' is not in the kernel "
                                       f"numpy whitelist")
            elif func.attr == "format":
                emit("L604", node, "str.format() is unsupported in "
                                   "nopython mode")
            else:
                emit("L607", node, f"method call '{dotted}()' is outside "
                                   f"the kernel whitelist; kernels operate "
                                   f"on flat arrays only")
