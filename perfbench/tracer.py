"""In-memory tracing of biprod's public functions, installed from outside.

install() rebinds each listed function in every biprod module that holds
it (the defining module and each ``from .x import name``), and replaces
the listed instance-class methods, with wrappers that record a span per
call.  Spans are aggregated as they close, per name: call count and
self time (a span's duration minus the durations of the spans it
directly encloses).  Nothing is written until snapshot() is called at
the end of the run, so the traced program does no I/O of its own.

Counting hooks (matmul work, homset sizes) run after the wrapped call
returns; their time is charged to no span, so it shows only in the
difference between a traced and an untraced run.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer -> public functions traced in it, by the name they are defined under
FUNCTIONS = {
    "construction": (
        "hom_add",
        "verify_semiadditive",
        "y_map",
        "star_map",
        "t_map",
        "c_map",
        "idempotents",
    ),
    "structure": (
        "pair",
        "copair",
        "from_matrix",
        "matrix_of",
        "times_map",
        "plus_map",
        "verify_product_witness",
        "verify_coproduct_witness",
    ),
    "monoidal": ("dist_prod", "dist_coprod", "tensor"),
    "kernel": ("compose", "equation", "identity"),
}

# module-level lru_caches in the construction layer
CACHES = ("zero_object", "zero_map", "t_inverse", "c_map", "_diagonal")

# span names whose calls, self time and counters become per-layer metrics
SPANS = tuple(f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns) + (
    "kernel.InversePair.certify",
    "instances.matmul",
)


class Tracer:
    def __init__(self) -> None:
        # one [child_time] cell per open span, innermost last
        self._stack: list[list[float]] = []
        # name -> [calls, self_s]
        self.spans: dict[str, list] = {}
        self.counters: Counter = Counter()
        # stage name -> [seconds, equations]
        self.stages: dict[str, list] = {}
        self.vacuous_records = 0
        self.render_s = 0.0
        self._caches: dict[str, object] = {}

    def wrap(self, name: str, fn, after=None):
        """Return fn recording a span called name.

        after, when given, is called as after(result, *args, **kwargs).
        """
        stack = self._stack
        stats = self.spans.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration - cell[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                hook_start = clock()
                after(result, *args, **kwargs)
                if stack:
                    # keep the hook out of the enclosing span's self time
                    stack[-1][0] += clock() - hook_start
            return result

        return traced

    # counting hooks

    def _count_matmul(self, result, sr, a, b, inner, cols) -> None:
        """matmul(sr, a, b, inner, cols) does len(a) * inner * cols multiply-adds."""
        rows = len(a)
        self.counters["matmul.madds"] += rows * inner * cols
        if inner == 0:
            return
        nonzero = 0
        for k in range(inner):
            col_nz = sum(1 for row in a if row[k])
            row_nz = sum(1 for x in b[k] if x)
            nonzero += col_nz * row_nz
        self.counters["matmul.zero_operand_madds"] += rows * inner * cols - nonzero

    def _count_homset(self, result, *args, **kwargs) -> None:
        if result is not None:
            self.counters["enumerate_homset.morphisms"] += len(result)

    # installation

    def _guard(self, orig, check_result_type):
        """Wrap cli._guard: per-stage time, equations and vacuous passes."""
        clock = time.perf_counter
        stages = self.stages

        def guard(checks, suite, names, thunk):
            cell = stages.setdefault(suite, [0.0, 0])

            def counted():
                res = thunk()
                if isinstance(res, check_result_type):
                    cell[1] += len(res.details)
                    if not res.details:
                        self.vacuous_records += 1
                return res

            start = clock()
            try:
                return orig(checks, suite, names, counted)
            finally:
                cell[0] += clock() - start

        return guard

    def _render(self, orig):
        clock = time.perf_counter

        def render(report):
            start = clock()
            try:
                return orig(report)
            finally:
                self.render_s += clock() - start

        return render

    def install(self) -> None:
        """Wrap every traced name in every loaded biprod module."""
        from biprod import cli, construction, kernel, monoidal, structure
        from biprod.instances import chain, matcat, product, semiring

        homes = {
            "construction": construction,
            "structure": structure,
            "monoidal": monoidal,
            "kernel": kernel,
        }
        for cache in CACHES:
            self._caches[cache] = getattr(construction, cache)
        swaps = {}
        for layer, fns in FUNCTIONS.items():
            for fn in fns:
                orig = getattr(homes[layer], fn)
                swaps[id(orig)] = (orig, self.wrap(f"{layer}.{fn}", orig))
        orig = semiring.matmul
        swaps[id(orig)] = (orig, self.wrap("instances.matmul", orig, self._count_matmul))
        orig = cli._guard
        swaps[id(orig)] = (orig, self._guard(orig, kernel.CheckResult))
        orig = cli.render_json
        swaps[id(orig)] = (orig, self._render(orig))
        for name, mod in list(sys.modules.items()):
            if name != "biprod" and not name.startswith("biprod."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        certify = kernel.InversePair.__dict__["certify"].__func__
        kernel.InversePair.certify = classmethod(
            self.wrap("kernel.InversePair.certify", certify)
        )
        for cls in (matcat.MatInstance, chain.ChainInstance, product.ProductInstance):
            for meth in ("product", "coproduct"):
                setattr(cls, meth, self.wrap("instances.witness", cls.__dict__[meth]))
            setattr(
                cls,
                "enumerate_homset",
                self.wrap(
                    "instances.enumerate_homset",
                    cls.__dict__["enumerate_homset"],
                    self._count_homset,
                ),
            )
        product.ProductInstance.pack_mor = self.wrap(
            "instances.product.pack_mor", product.ProductInstance.pack_mor
        )

    def snapshot(self) -> dict:
        """Everything recorded so far, as plain JSON-ready data."""
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
            "stages": {k: list(v) for k, v in self.stages.items()},
            "caches": caches,
            "vacuous_records": self.vacuous_records,
            "render_s": self.render_s,
        }
