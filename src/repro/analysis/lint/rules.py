"""dmtlint AST rules: L1 (integer address arithmetic) and L2 (determinism).

L1 findings
-----------
* ``L101`` — true division (``/``) on an address-valued expression.
* ``L102`` — ``float()`` / ``math.pow()`` applied to an address-valued
  expression.
* ``L103`` — shift/mask with a magic page-geometry constant (``12``,
  ``21``, ``30``, ``0xFFF``, ``0x1FF``...) instead of a named constant
  from :mod:`repro.arch` (``PAGE_SHIFT``, ``PageSize.SIZE_2M``,
  ``level_index``, ``page_offset``...).

L2 findings
-----------
* ``L201`` — RNG constructed without an explicit seed
  (``np.random.default_rng()``, ``random.Random()``, ``random.seed()``).
* ``L202`` — call into a module-global RNG (``random.random()``,
  ``np.random.randint(...)``): global state defeats per-run seeding.
* ``L203`` — iteration over a ``set`` in a result-path file; Python sets
  iterate in hash order, which varies across runs/interpreters.
* ``L204`` — call to builtin ``hash()``: str/bytes hashes are salted by
  ``PYTHONHASHSEED``, so any value derived from one (an RNG seed, a
  bucket index) changes every interpreter run. Use ``zlib.crc32`` or
  ``hashlib`` for a stable digest.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.lint.engine import FileContext, Rule, Violation

#: Identifier fragments (underscore-split, lowercased) that mark a value
#: as an address / frame number. "trace"/"unit" cover the vectorized
#: engine's VA arrays and 2MB-unit indices.
ADDRESS_TOKENS = frozenset({
    "va", "vas", "pa", "pas", "vpn", "vpns", "pfn", "pfns",
    "gpa", "gpas", "hpa", "hpas", "gva", "hva", "gfn", "gfns",
    "hfn", "l0pa", "l1pa", "l2pa", "addr", "addrs", "address",
    "addresses", "frame", "frames", "trace", "unit", "units",
})

#: Magic page-geometry constants L103 refuses in shift/mask positions.
#: 12/21/30 are the 4K/2M/1G page shifts; 9 is the per-level index
#: width; the masks are the matching ``(1 << n) - 1`` values.
MAGIC_GEOMETRY = frozenset({9, 12, 21, 30, 39, 48,
                            0x1FF, 0xFFF, 0x1FFFFF, 0x3FFFFFFF})

#: ``random`` module functions that use the hidden global RNG.
_STDLIB_GLOBAL_RNG = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "betavariate", "expovariate",
    "getrandbits", "randbytes", "triangular", "vonmisesvariate",
})

#: Legacy ``np.random.*`` functions backed by the global RandomState.
_NUMPY_GLOBAL_RNG = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "poisson", "exponential", "seed",
})


def _name_tokens(name: str) -> Set[str]:
    return set(name.lower().split("_"))


#: Calls whose result is a *count* even when the argument is an address
#: array — exempt from the int-domain requirement.
_COUNT_FUNCS = frozenset({"len", "sum", "min", "max", "id"})


def _address_mention(node: ast.AST) -> Optional[str]:
    """Return the first address-named identifier inside ``node``, if any.

    Subtrees under count-producing calls (``len(trace)``) are skipped:
    their value is a cardinality, not an address.
    """
    if isinstance(node, ast.Call) and _dotted(node.func) in _COUNT_FUNCS:
        return None
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.arg):
        name = node.arg
    if name and _name_tokens(name) & ADDRESS_TOKENS:
        return name
    for child in ast.iter_child_nodes(node):
        found = _address_mention(child)
        if found:
            return found
    return None


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of a call target (``np.random.default_rng``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _int_constant(node: ast.AST) -> Optional[int]:
    """The int value of a literal, looking through ``~x`` (mask inversion)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
        node = node.operand
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    return None


def _call_has_seed(node: ast.Call) -> bool:
    """True when the call passes any positional arg or a seed-like kwarg."""
    if node.args:
        return True
    return any(kw.arg in (None, "seed", "x", "a") for kw in node.keywords)


class L1AddressArithmetic(Rule):
    """Address math stays in the int domain, with named geometry constants."""

    family = "L1"
    scope = None  # applies everywhere

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        path = str(ctx.path)
        out: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp):
                if isinstance(node.op, ast.Div):
                    name = _address_mention(node.left) or _address_mention(node.right)
                    if name:
                        out.append(Violation(
                            "L101", path, node.lineno, node.col_offset,
                            f"true division on address-valued '{name}' leaves "
                            f"the int domain; use // or a shift",
                        ))
                elif isinstance(node.op, (ast.LShift, ast.RShift, ast.BitAnd)):
                    out.extend(self._check_magic(ctx, node, path))
            elif isinstance(node, ast.Call):
                out.extend(self._check_float_call(node, path))
        return out

    def _check_magic(self, ctx: FileContext, node: ast.BinOp,
                     path: str) -> Iterable[Violation]:
        for literal_side, other_side in ((node.right, node.left),
                                         (node.left, node.right)):
            value = _int_constant(literal_side)
            if value is None or value not in MAGIC_GEOMETRY:
                continue
            name = _address_mention(other_side)
            if not name:
                continue
            op = {ast.LShift: "<<", ast.RShift: ">>",
                  ast.BitAnd: "&"}[type(node.op)]
            yield Violation(
                "L103", path, node.lineno, node.col_offset,
                f"magic geometry constant {value:#x} in '{name} {op} ...'; "
                f"use a named constant/helper from repro.arch "
                f"(PAGE_SHIFT, PageSize, level_index, page_offset, ...)",
            )
            return

    def _check_float_call(self, node: ast.Call, path: str) -> Iterable[Violation]:
        dotted = _dotted(node.func)
        if dotted not in ("float", "math.pow", "np.float64", "numpy.float64"):
            return
        for arg in node.args:
            name = _address_mention(arg)
            if name:
                yield Violation(
                    "L102", path, node.lineno, node.col_offset,
                    f"{dotted}() on address-valued '{name}' leaves the int "
                    f"domain; addresses must stay integers",
                )
                return


class L2Determinism(Rule):
    """Seeded RNGs everywhere; no set iteration on the result path."""

    family = "L2"
    scope = None  # RNG checks global; set iteration gated on result-path

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        path = str(ctx.path)
        out: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                out.extend(self._check_rng(node, path))
        if "result-path" in ctx.scopes:
            out.extend(self._check_set_iteration(ctx, path))
        return out

    # -- RNG seeding ---------------------------------------------------- #

    def _check_rng(self, node: ast.Call, path: str) -> Iterable[Violation]:
        dotted = _dotted(node.func)
        if not dotted:
            return
        if dotted == "hash":
            yield Violation(
                "L204", path, node.lineno, node.col_offset,
                "builtin hash() is salted by PYTHONHASHSEED and varies "
                "across interpreter runs; use zlib.crc32/hashlib for a "
                "stable digest",
            )
            return
        head, _, last = dotted.rpartition(".")
        if last == "default_rng" and not _call_has_seed(node):
            yield Violation(
                "L201", path, node.lineno, node.col_offset,
                f"{dotted}() without an explicit seed is nondeterministic",
            )
        elif dotted in ("random.Random", "random.SystemRandom") \
                and not _call_has_seed(node):
            yield Violation(
                "L201", path, node.lineno, node.col_offset,
                f"{dotted}() without an explicit seed is nondeterministic",
            )
        elif dotted == "random.seed" and not _call_has_seed(node):
            yield Violation(
                "L201", path, node.lineno, node.col_offset,
                "random.seed() without an argument reseeds from the OS",
            )
        elif dotted.startswith("random.") and last in _STDLIB_GLOBAL_RNG:
            yield Violation(
                "L202", path, node.lineno, node.col_offset,
                f"{dotted}() uses the module-global RNG; construct a seeded "
                f"random.Random(seed) instead",
            )
        elif head in ("np.random", "numpy.random") and last in _NUMPY_GLOBAL_RNG:
            yield Violation(
                "L202", path, node.lineno, node.col_offset,
                f"{dotted}() uses the global RandomState; use "
                f"np.random.default_rng(seed)",
            )

    # -- set iteration --------------------------------------------------- #

    def _check_set_iteration(self, ctx: FileContext,
                             path: str) -> Iterable[Violation]:
        set_names = self._collect_set_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            iters: List[ast.AST] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and _dotted(node.func) in ("list", "tuple"):
                # materializing a set into an ordered container is the
                # same hash-order hazard as iterating it directly
                iters.extend(node.args[:1])
            for it in iters:
                if self._is_setlike(it, set_names):
                    yield Violation(
                        "L203", path, it.lineno, it.col_offset,
                        "iteration over a set is hash-ordered and "
                        "nondeterministic on the result path; sort it first",
                    )

    @staticmethod
    def _collect_set_names(tree: ast.AST) -> Set[str]:
        """Names assigned a set-valued expression anywhere in the file."""
        names: Set[str] = set()
        for _ in range(2):  # second pass catches set-from-set assignments
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    value = node.value
                    if value is None or not L2Determinism._is_setlike(value, names):
                        continue
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
        return names

    @staticmethod
    def _is_setlike(node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in ("set", "frozenset"):
                return True
            # set methods that return sets: a.union(b), a.intersection(b)...
            _, _, last = dotted.rpartition(".")
            if last in ("union", "intersection", "difference",
                        "symmetric_difference"):
                base = node.func.value if isinstance(node.func, ast.Attribute) else None
                return base is not None and L2Determinism._is_setlike(base, set_names)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
            return (L2Determinism._is_setlike(node.left, set_names)
                    or L2Determinism._is_setlike(node.right, set_names))
        return False
