"""The rule catalogue — this repo's invariants, one class per rule.

=======  ==========================================================
RNG001   raw ``np.random.*`` calls / unseeded ``default_rng()``
         anywhere outside :mod:`repro.utils.rng`
RNG002   wall-clock reads (``time.time``, ``datetime.now`` …) in
         library code outside ``repro.obs``
DT001    ``np.zeros/empty/ones/full/arange`` without an explicit
         dtype inside ``repro.nn`` (the PR-4 buffer contract)
IMP001   module-level imports that violate the layering DAG
OBS001   metric names: snake_case; counters end ``_total``;
         histograms carry a unit suffix
EXC001   bare/broad ``except`` that neither re-raises nor records
         (logging or telemetry) what it swallowed
=======  ==========================================================

Every check runs off the shared single-parse walk in
:mod:`repro.analysis.engine`; rules here never re-read or re-parse.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.engine import FileContext, Rule, Violation, register

__all__ = [
    "RngSourceRule",
    "WallClockRule",
    "DtypeRule",
    "ImportLayeringRule",
    "MetricNameRule",
    "BroadExceptRule",
]

_NUMPY_RANDOM = ("numpy.random", "np.random")


def _is_numpy_random(dotted: str) -> bool:
    return dotted.startswith("numpy.random.")


@register
class RngSourceRule(Rule):
    """RNG001 — all randomness flows through ``repro.utils.rng``.

    The golden-matrix SHA lock and the hist/exact parity tests assume a
    single seeded stream discipline; a stray ``np.random.rand`` (global
    state) or zero-argument ``default_rng()`` (OS entropy) silently breaks
    replay.  Flags any call into ``numpy.random`` and any unseeded
    ``default_rng()`` outside the blessed module.
    """

    id = "RNG001"
    summary = "raw numpy.random call or unseeded default_rng()"
    interests = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module != ctx.config.rng_module

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        assert isinstance(node, ast.Call)
        dotted = ctx.dotted_name(node.func)
        if dotted and _is_numpy_random(dotted):
            yield self.violation(
                ctx,
                node,
                f"call to {dotted} — route through "
                f"{ctx.config.rng_module} helpers",
            )
            return
        # unseeded default_rng(): catches both the repro helper and a raw
        # numpy one — no arguments means OS entropy, i.e. unreproducible.
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else (
            fn.id if isinstance(fn, ast.Name) else None
        )
        if name == "default_rng" and not node.args and not node.keywords:
            yield self.violation(
                ctx,
                node,
                "unseeded default_rng() draws OS entropy — pass a seed "
                "or an existing Generator",
            )


#: dotted origins that read the wall clock (RNG002)
_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    """RNG002 — no wall-clock reads in library code.

    Wall-clock values leaking into features or model state are the
    classic silent-nondeterminism bug (Brown et al. 2022): a rerun
    produces different numbers with no failing test.  Monotonic duration
    clocks (``perf_counter``, ``monotonic``) stay legal — they only ever
    feed telemetry.  ``repro.obs`` is exempt: observability timestamps
    are its job.
    """

    id = "RNG002"
    summary = "wall-clock read outside repro.obs"
    interests = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return not any(
            ctx.in_package(pkg) for pkg in ctx.config.wallclock_packages
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        assert isinstance(node, ast.Call)
        dotted = ctx.dotted_name(node.func)
        if dotted in _WALLCLOCK:
            yield self.violation(
                ctx,
                node,
                f"wall-clock call {dotted}() in library code — pass times "
                "in as data, or move the read into repro.obs",
            )


#: constructor → index of the positional slot that is the dtype
_DTYPE_POSITIONAL = {"zeros": 1, "empty": 1, "ones": 1, "full": 2}


@register
class DtypeRule(Rule):
    """DT001 — array constructors in ``repro.nn`` must pin their dtype.

    The PR-4 compute path hands buffers between layers via ``out=``; a
    constructor that silently defaults to float64 breaks the float32
    compute path (dtype mismatch → ufunc copies → the allocation-free contract
    quietly degrades).  ``*_like`` constructors inherit a dtype and are
    exempt.
    """

    id = "DT001"
    summary = "array constructor without explicit dtype in repro.nn"
    interests = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return any(
            ctx.in_package(pkg) for pkg in ctx.config.dtype_strict_packages
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        assert isinstance(node, ast.Call)
        dotted = ctx.dotted_name(node.func)
        if dotted is None or not dotted.startswith("numpy."):
            return
        ctor = dotted[len("numpy."):]
        if ctor not in ("zeros", "empty", "ones", "full", "arange"):
            return
        if any(kw.arg == "dtype" for kw in node.keywords):
            return
        pos = _DTYPE_POSITIONAL.get(ctor)
        if pos is not None and len(node.args) > pos:
            return  # dtype passed positionally
        yield self.violation(
            ctx,
            node,
            f"np.{ctor}(...) without dtype= — the nn compute dtype "
            "(DESIGN.md §8) requires every buffer to pin its dtype",
        )


@register
class ImportLayeringRule(Rule):
    """IMP001 — module-level imports must follow the layering DAG.

    The DAG (``utils`` → ``obs`` → ``data`` → ``features``/``ml``/``nn``
    → ``core`` → ``cli``) is what keeps the subsystems independently
    testable and import-cycle-free.  Only module-level imports count:
    function-scoped imports are the sanctioned escape hatch for
    runtime-only dependencies and cannot create import-time cycles.
    Imports under ``if TYPE_CHECKING:`` are annotations, not
    dependencies, and are skipped.
    """

    id = "IMP001"
    summary = "module-level import violates the layering DAG"
    interests = (ast.Import, ast.ImportFrom)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module is not None and ctx.config.package_of(
            ctx.module
        ) is not None

    def start(self, ctx: FileContext) -> None:
        # Pre-compute the TYPE_CHECKING-guarded statements for this file.
        guarded: set[int] = set()
        for stmt in ast.walk(ctx.tree):
            if not isinstance(stmt, ast.If):
                continue
            test = stmt.test
            name = (
                test.id
                if isinstance(test, ast.Name)
                else test.attr
                if isinstance(test, ast.Attribute)
                else None
            )
            if name == "TYPE_CHECKING":
                for sub in stmt.body:
                    for inner in ast.walk(sub):
                        guarded.add(id(inner))
        ctx._imp001_guarded = guarded  # type: ignore[attr-defined]

    def _targets(self, node: ast.Import | ast.ImportFrom, ctx: FileContext):
        pkg = ctx.config.package
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == pkg or alias.name.startswith(pkg + "."):
                    yield alias.name
        else:
            base = node.module or ""
            if node.level:  # relative: resolve against this module's package
                assert ctx.module is not None
                parts = ctx.module.split(".")
                # level=1 means "this package": strip the module name for a
                # regular module, nothing for a package __init__.
                is_pkg = ctx.path.name == "__init__.py"
                drop = node.level - (1 if is_pkg else 0)
                anchor = parts[: len(parts) - drop]
                base = ".".join(anchor + ([base] if base else []))
            if base == pkg or base.startswith(pkg + "."):
                if base == pkg:
                    # ``from repro import core`` → repro.core per name
                    for alias in node.names:
                        yield f"{pkg}.{alias.name}"
                else:
                    yield base

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        assert isinstance(node, (ast.Import, ast.ImportFrom))
        if not ctx.is_top_level(node):
            return
        if id(node) in getattr(ctx, "_imp001_guarded", ()):
            return
        assert ctx.module is not None
        here = ctx.config.package_of(ctx.module)
        assert here is not None
        allowed = ctx.config.layers.get(here)
        for target in self._targets(node, ctx):
            tpkg = ctx.config.package_of(target)
            if tpkg is None or tpkg == here:
                continue
            if allowed is None:
                yield self.violation(
                    ctx,
                    node,
                    f"package {here!r} is not in the layering config "
                    "([tool.troutlint.layers] in pyproject.toml)",
                )
                return
            if tpkg not in allowed:
                label = here or "the package root"
                yield self.violation(
                    ctx,
                    node,
                    f"{label} may not import repro.{tpkg} "
                    f"(allowed: {', '.join(allowed) or 'nothing'})",
                )


_SNAKE_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_SNAKE_FRAGMENT_RE = re.compile(r"^[a-z0-9_]*$")


@register
class MetricNameRule(Rule):
    """OBS001 — telemetry names are snake_case and carry their unit.

    Prometheus conventions, frozen here so dashboards built on one PR's
    names survive the next: counters end ``_total``; histograms end in a
    unit suffix (``_seconds``/``_blocks``/``_bytes``/``_total``) so a
    reader can tell what the buckets measure; everything is snake_case.
    f-string names are checked on their constant fragments.
    """

    id = "OBS001"
    summary = "metric name violates naming/unit-suffix conventions"
    interests = (ast.Call,)

    _KINDS = ("counter", "gauge", "histogram")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        assert isinstance(node, ast.Call)
        fn = node.func
        if not isinstance(fn, ast.Attribute) or fn.attr not in self._KINDS:
            return
        kind = fn.attr
        name_node: ast.expr | None = node.args[0] if node.args else None
        if name_node is None:
            for kw in node.keywords:
                if kw.arg == "name":
                    name_node = kw.value
                    break
        if name_node is None:
            return
        fragments, suffix = self._literal_parts(name_node)
        if fragments is None:
            return  # dynamic name, nothing checkable statically
        for frag in fragments:
            check = _SNAKE_RE if frag is fragments[0] else _SNAKE_FRAGMENT_RE
            if not check.match(frag):
                yield self.violation(
                    ctx,
                    node,
                    f"metric name fragment {frag!r} is not snake_case",
                )
                return
        if suffix is None:
            return  # f-string ends in an expression: suffix unknowable
        if kind == "counter" and not suffix.endswith("_total"):
            yield self.violation(
                ctx, node, f"counter {suffix!r} must end with '_total'"
            )
        elif kind == "histogram" and not suffix.endswith(
            tuple(ctx.config.histogram_suffixes)
        ):
            yield self.violation(
                ctx,
                node,
                f"histogram {suffix!r} needs a unit suffix "
                f"({', '.join(ctx.config.histogram_suffixes)})",
            )

    @staticmethod
    def _literal_parts(
        node: ast.expr,
    ) -> tuple[list[str] | None, str | None]:
        """(constant fragments, trailing-constant text) of a name literal.

        Plain string → ([name], name).  f-string → its constant pieces,
        with the suffix known only when the last piece is constant.
        Anything else → (None, None).
        """
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value], node.value
        if isinstance(node, ast.JoinedStr):
            frags = [
                v.value
                for v in node.values
                if isinstance(v, ast.Constant) and isinstance(v.value, str)
            ]
            last = node.values[-1] if node.values else None
            suffix = (
                last.value
                if isinstance(last, ast.Constant)
                and isinstance(last.value, str)
                else None
            )
            return frags, suffix
        return None, None


#: method names whose presence in a handler counts as "recorded it"
_RECORDING_CALLS = frozenset(
    {
        "debug", "info", "warning", "error", "exception", "critical",
        "log",  # logger.log(level, ...)
        "inc", "observe", "set", "bump",  # telemetry instruments
    }
)


@register
class BroadExceptRule(Rule):
    """EXC001 — broad handlers must re-raise or record.

    ``except Exception: pass`` turns a real failure (corrupt cache entry,
    dead worker) into silent wrong numbers.  A broad handler is fine if
    it *raises* (narrowing to a domain error), *logs*, or *bumps a
    telemetry instrument* — the failure stays observable.  Bare
    ``except:`` must re-raise regardless: it swallows
    ``KeyboardInterrupt``/``SystemExit``.
    """

    id = "EXC001"
    summary = "bare/broad except without re-raise, logging, or telemetry"
    interests = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        assert isinstance(node, ast.ExceptHandler)
        broad, bare = self._breadth(node.type, ctx)
        if not broad:
            return
        raises = any(
            isinstance(n, ast.Raise) for sub in node.body for n in ast.walk(sub)
        )
        if bare:
            if not raises:
                yield self.violation(
                    ctx,
                    node,
                    "bare except must re-raise (it swallows SystemExit "
                    "and KeyboardInterrupt)",
                )
            return
        if raises or self._records(node):
            return
        yield self.violation(
            ctx,
            node,
            "broad except swallows the failure — re-raise, log it, or "
            "bump a telemetry counter",
        )

    @staticmethod
    def _breadth(
        type_node: ast.expr | None, ctx: FileContext
    ) -> tuple[bool, bool]:
        """(is broad, is bare) for a handler's exception spec."""
        if type_node is None:
            return True, True

        def name_of(n: ast.expr) -> str | None:
            if isinstance(n, ast.Name):
                return n.id
            if isinstance(n, ast.Attribute):
                return n.attr
            return None

        if isinstance(type_node, ast.Tuple):
            names = [name_of(e) for e in type_node.elts]
        else:
            names = [name_of(type_node)]
        return any(n in ("Exception", "BaseException") for n in names), False

    @staticmethod
    def _records(handler: ast.ExceptHandler) -> bool:
        for sub in handler.body:
            for n in ast.walk(sub):
                if not isinstance(n, ast.Call):
                    continue
                fn = n.func
                name = (
                    fn.attr
                    if isinstance(fn, ast.Attribute)
                    else fn.id
                    if isinstance(fn, ast.Name)
                    else None
                )
                if name in _RECORDING_CALLS:
                    return True
        return False
