"""Command line driver.

verify walks the stage table STAGES in order.  Each row names a stage,
the number of objects its check takes, the bound those objects are drawn
up to (max_size for "pair" stages, the smaller quad bound for "quad"
ones), whether it needs terminal and initial objects, and the check.
One loop runs every check on every tuple of objects and appends one
record each; a raised CategoryError becomes a failed record through the
same fold the construction's verifiers use, so the record names the
first failed equation and its differing entry.  On an instance without
terminal and initial objects, each stage that needs them reports one
NoNullaryStructure record instead of running.

show prints a single constructed morphism.  Exit codes: 0 when every
executed check passed, 1 when any failed (or a construction the user
asked to see does not exist), 2 for unusable arguments.

The JSON report is byte-identical across runs with the same arguments:
the measured duration goes to stderr, and the duration_ms field in the
payload stays null.
"""
from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .construction import (
    _from_error,
    _grid,
    _interleave,
    _star_grid,
    c_map,
    canonical_mixed_map,
    hom_add,
    idempotents,
    t_inverse,
    t_map,
    verify_biproduct,
    verify_interchange,
    verify_intertwining,
    verify_semiadditive,
    zero_map,
    zero_object,
)
from .errors import CategoryError, InvalidBounds, ParseError, UnknownInstance
from .instances import Instance, MatInstance, ProductInstance, resolve
from .kernel import CheckResult, check_inverse_pair, equation
from .monoidal import dist_coprod, dist_prod, has_nullary, nullary_distributors
from .structure import matrix_of, verify_coproduct_witness, verify_product_witness

# per-homset sample size for the commutative-monoid law scans
LAW_SAMPLE_CAP = 5
# largest homset the verifiers will enumerate exhaustively
ENUM_CAP = 512

@dataclass(frozen=True)
class SuiteConfig:
    instance: str = "finrel"
    max_size: int = 2
    max_quad: int | None = None
    samples: int = 25
    seed: int = 0
    report: str = "text"

    def __post_init__(self) -> None:
        if self.max_size < 1 or self.max_size > 16:
            raise InvalidBounds("max size must be between 1 and 16")
        if self.max_quad is not None and not (1 <= self.max_quad <= 4):
            raise InvalidBounds("quad bound must be between 1 and 4")
        if self.samples < 1:
            raise InvalidBounds("samples must be at least 1")
        if self.report not in ("text", "json"):
            raise InvalidBounds(f"unknown report format {self.report!r}")

    @property
    def quad_bound(self) -> int:
        # triple and quadruple stages grow as fourth powers, so they get
        # their own, smaller default bound
        return self.max_quad if self.max_quad is not None else min(self.max_size, 2)

    def echo(self) -> dict:
        return {
            "instance": self.instance,
            "max_size": self.max_size,
            "max_quad": self.quad_bound,
            "samples": self.samples,
            "seed": self.seed,
            "report": self.report,
        }


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    objects: tuple[str, ...]
    passed: bool
    failure: str | None = None


@dataclass(frozen=True)
class Report:
    config: SuiteConfig
    checks: tuple[CheckRecord, ...]
    duration_ms: float

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)


def _failure_text(res: CheckResult) -> str:
    fails = res.failures()
    first = fails[0]
    msg = first.label
    if first.note:
        msg += f" ({first.note})"
    if len(fails) > 1:
        msg += f" [+{len(fails) - 1} more]"
    return msg


def _guard(checks: list[CheckRecord], suite: str, names: tuple[str, ...], thunk) -> None:
    """Run one check; a raised CategoryError becomes a failed record."""
    try:
        res = thunk()
    except CategoryError as exc:
        res = CheckResult(suite, (_from_error(exc),))
    if isinstance(res, CheckResult) and not res.passed:
        checks.append(CheckRecord(suite, names, False, _failure_text(res)))
    else:
        checks.append(CheckRecord(suite, names, True))


def _cert(ip) -> CheckResult:
    return check_inverse_pair(ip.fwd, ip.bwd)


def _nullary_check(inst) -> CheckResult:
    zw = zero_object(inst)
    res1 = check_inverse_pair(zw.to_terminal.fwd, zw.to_terminal.bwd, "z-terminal")
    res2 = check_inverse_pair(zw.from_initial.fwd, zw.from_initial.bwd, "z-initial")
    return CheckResult("nullary", res1.details + res2.details)


def _nullary_dist_check(a) -> CheckResult:
    p, c = nullary_distributors(a)
    return CheckResult("nullary-distributors", _cert(p).details + _cert(c).details)


def _t_inverse_check(a, b) -> CheckResult:
    ti = t_inverse(a, b)
    return CheckResult(
        "t-inverse", _cert(ti).details + (equation("fwd=t", ti.fwd, t_map(a, b)),)
    )


def _canonical_check(a, b) -> CheckResult:
    return CheckResult(
        "canonical",
        (equation("c=canonical", c_map(a, b).fwd, canonical_mixed_map(a, b)),),
    )


class _Run(NamedTuple):
    """What the checks of one suite run share: one RNG drawn in record order."""

    inst: Instance
    rng: random.Random
    objs: list
    samples: int


def _homset_sample(run: _Run, a, b) -> list:
    homs = run.inst.enumerate_homset(a, b, cap=ENUM_CAP)
    if homs is not None:
        if len(homs) <= LAW_SAMPLE_CAP:
            return homs
        return run.rng.sample(homs, LAW_SAMPLE_CAP)
    out = []
    for _ in range(LAW_SAMPLE_CAP):
        f = run.inst.random_morphism(run.rng, a, b)
        if f is None:
            break
        out.append(f)
    return out


def _native_agreement(run: _Run, a, b) -> CheckResult:
    """Compare hom_add with the instance's own addition, when it has one.

    Vacuously passes when native_add is unsupported or the homset is
    empty; exhausts small homsets, otherwise draws seeded pairs.
    """
    inst, rng = run.inst, run.rng
    homs = inst.enumerate_homset(a, b, cap=ENUM_CAP)
    if homs is not None and len(homs) ** 2 <= ENUM_CAP:
        pairs = list(itertools.product(homs, repeat=2))
    else:
        pairs = []
        for _ in range(run.samples):
            f = inst.random_morphism(rng, a, b)
            g = inst.random_morphism(rng, a, b)
            if f is None or g is None:
                break
            pairs.append((f, g))
    details = []
    for i, (f, g) in enumerate(pairs):
        native = inst.native_add(f, g)
        if native is None:
            break
        details.append(equation(f"hom_add=native#{i}", hom_add(f, g), native))
    return CheckResult("native-add", tuple(details))


class Stage(NamedTuple):
    """One row of the suite: check(run, *objects) for every arity-tuple of objects.

    bound "pair" draws the objects up to max_size, "quad" up to the quad
    bound.  A needs_nullary stage does not run on an instance without
    terminal and initial objects.
    """

    name: str
    arity: int
    bound: str
    needs_nullary: bool
    check: Callable[..., CheckResult]


# The suite, in report order.  Checks look their callees up by name when
# they run, so anything that rebinds a module attribute sees every call.
STAGES = (
    Stage("nullary", 0, "pair", True, lambda run: _nullary_check(run.inst)),
    Stage("nullary-distributors", 1, "pair", True, lambda run, a: _nullary_dist_check(a)),
    Stage(
        "product-witness", 2, "pair", False,
        lambda run, a, b: verify_product_witness(
            run.inst.product(a, b), run.objs, rng=run.rng, enum_cap=ENUM_CAP
        ),
    ),
    Stage(
        "coproduct-witness", 2, "pair", False,
        lambda run, a, b: verify_coproduct_witness(
            run.inst.coproduct(a, b), run.objs, rng=run.rng, enum_cap=ENUM_CAP
        ),
    ),
    Stage("dist-prod", 3, "quad", False, lambda run, a, b, c: _cert(dist_prod(a, b, c))),
    Stage("dist-coprod", 3, "quad", False, lambda run, a, b, c: _cert(dist_coprod(a, b, c))),
    Stage("interchange", 4, "quad", False, lambda run, *quad: verify_interchange(*quad)),
    Stage("t-inverse", 2, "pair", False, lambda run, a, b: _t_inverse_check(a, b)),
    Stage("intertwining", 2, "pair", True, lambda run, a, b: verify_intertwining(a, b)),
    Stage("canonical", 2, "pair", True, lambda run, a, b: _canonical_check(a, b)),
    Stage("biproduct", 2, "pair", True, lambda run, a, b: verify_biproduct(a, b)),
    Stage(
        "hom-add-laws", 2, "pair", True,
        lambda run, a, b: verify_semiadditive(_homset_sample(run, a, b)),
    ),
    Stage("hom-add-native", 2, "pair", True, _native_agreement),
    Stage(
        "bilinearity", 3, "quad", True,
        lambda run, a, b, c: verify_semiadditive(
            _homset_sample(run, a, b) + _homset_sample(run, b, c)
        ),
    ),
)

# Stages that use the zero object.  Without terminal and initial objects
# each of these, and "nullary" itself, reports one NoNullaryStructure
# record instead of running; nullary-distributors reports none.
NULLARY_DEPENDENT = tuple(
    s.name for s in STAGES if s.needs_nullary and not s.name.startswith("nullary")
)


def run_suite(config: SuiteConfig) -> Report:
    inst = resolve(config.instance, config.max_size)
    start = time.perf_counter()
    checks: list[CheckRecord] = []
    objs = inst.objects(config.max_size)
    pools = {"pair": objs, "quad": inst.objects(config.quad_bound)}
    run = _Run(inst, random.Random(config.seed), objs, config.samples)
    fmt = inst.format_obj
    nullary_ok = has_nullary(inst)
    for stage in STAGES:
        if stage.needs_nullary and not nullary_ok:
            # the nullary record stands for its distributors
            if stage.name != "nullary-distributors":
                checks.append(CheckRecord(stage.name, (), False, "NoNullaryStructure"))
            continue
        for tup in itertools.product(pools[stage.bound], repeat=stage.arity):
            names = tuple(fmt(x) for x in tup)
            _guard(checks, stage.name, names, lambda: stage.check(run, *tup))
    duration = (time.perf_counter() - start) * 1000.0
    return Report(config, tuple(checks), duration)


def render_json(report: Report) -> str:
    payload = {
        "config": report.config.echo(),
        "checks": [
            {
                "suite": c.suite,
                "objects": list(c.objects),
                "passed": c.passed,
                **({"failure": c.failure} if c.failure is not None else {}),
            }
            for c in report.checks
        ],
        "summary": {"passed": report.passed, "failed": report.failed},
        "duration_ms": None,
    }
    return json.dumps(payload, indent=2) + "\n"


def render_text(report: Report) -> str:
    cfg = report.config
    lines = [
        f"instance={cfg.instance} max_size={cfg.max_size} "
        f"max_quad={cfg.quad_bound} samples={cfg.samples} seed={cfg.seed}"
    ]
    for c in report.checks:
        where = f"{c.suite}({','.join(c.objects)})" if c.objects else c.suite
        if c.passed:
            lines.append(f"[pass] {where}")
        else:
            lines.append(f"[FAIL] {where}: {c.failure}")
    lines.append(
        f"summary: {report.passed} passed, {report.failed} failed "
        f"in {report.duration_ms:.0f} ms"
    )
    return "\n".join(lines) + "\n"


_EXPR = re.compile(r"^\s*(star|zero|t|c|e'|e)\s*\(([^()]*)\)\s*$")
_ARITY = {"star": 4, "zero": 2, "t": 2, "c": 2, "e": 2, "e'": 2}


def _parse_expression(text: str) -> tuple[str, list[str]]:
    m = _EXPR.match(text)
    if not m:
        raise ParseError(
            f"cannot parse {text!r}; expected star(a1,a2,b1,b2), t(a,b), "
            "c(a,b), e(a,b), e'(a,b) or zero(a,b)"
        )
    head = m.group(1)
    inner = m.group(2).strip()
    parts = [s.strip() for s in inner.split(",")] if inner else []
    if any(not p for p in parts):
        raise ParseError("empty object in argument list")
    if len(parts) != _ARITY[head]:
        raise ParseError(f"{head} takes {_ARITY[head]} objects, got {len(parts)}")
    return head, parts


def _parse_obj(inst, text: str):
    text = text.strip()
    if isinstance(inst, ProductInstance):
        if "|" not in text:
            raise ParseError(
                f"objects of {inst.name} are spelled left|right, got {text!r}"
            )
        lt, rt = text.split("|", 1)
        return inst.pack(_parse_obj(inst.left, lt), _parse_obj(inst.right, rt))
    try:
        n = int(text)
    except ValueError:
        raise ParseError(f"cannot read object {text!r} as an integer") from None
    if isinstance(inst, MatInstance) and n < 0:
        raise ParseError("matrix objects are nonnegative dimensions")
    return inst.obj(n)


def _print_with_entries(inst, m, c, p) -> None:
    print(inst.format_mor(m))
    for j, k, entry in matrix_of(m, c, p).entries():
        print(f"  [{j},{k}] {inst.format_mor(entry)}")


def _run_show(args) -> int:
    inst = resolve(args.instance, args.max_size)
    head, parts = _parse_expression(args.expression)
    objs = [_parse_obj(inst, t) for t in parts]
    if head == "zero":
        print(inst.format_mor(zero_map(*objs)))
    elif head in ("e", "e'"):
        e, e_prime = idempotents(*objs)
        print(inst.format_mor(e if head == "e" else e_prime))
    elif head in ("star", "t"):
        g = _star_grid(*objs) if head == "star" else _grid(objs[0], objs[0], objs[1], objs[1])
        _print_with_entries(inst, _interleave(g), g.c_dom, g.p_cod)
    else:
        a, b = objs
        _print_with_entries(
            inst, c_map(a, b).fwd, inst.coproduct(a, b), inst.product(a, b)
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="biprod",
        description="verify biproduct structure on finite category instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run the staged check suite on one instance")
    v.add_argument("--instance", default="finrel", help="instance selector")
    v.add_argument("--max-size", type=int, default=2, help="object bound for pair stages")
    v.add_argument(
        "--max-quad",
        type=int,
        default=None,
        help="object bound for triple/quadruple stages (default: min(max-size, 2))",
    )
    v.add_argument("--samples", type=int, default=25, help="random probes per sampled check")
    v.add_argument("--seed", type=int, default=0, help="seed for every random draw")
    v.add_argument("--report", choices=("text", "json"), default="text")
    s = sub.add_parser("show", help="print one constructed morphism")
    s.add_argument("expression", help="e.g. 't(1,2)', 'star(1,1,2,2)', 'zero(2,3)'")
    s.add_argument("--instance", default="finrel")
    s.add_argument("--max-size", type=int, default=3)
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            config = SuiteConfig(
                instance=args.instance,
                max_size=args.max_size,
                max_quad=args.max_quad,
                samples=args.samples,
                seed=args.seed,
                report=args.report,
            )
            report = run_suite(config)
            if config.report == "json":
                sys.stdout.write(render_json(report))
                print(f"completed in {report.duration_ms:.0f} ms", file=sys.stderr)
            else:
                sys.stdout.write(render_text(report))
            return 0 if report.failed == 0 else 1
        return _run_show(args)
    except (UnknownInstance, InvalidBounds, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CategoryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
