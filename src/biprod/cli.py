"""Command line driver.

verify walks the stage table STAGES in order.  Each row names a stage,
the number of objects its check takes (three or four are drawn up to the
smaller quad bound, fewer up to max_size), whether it needs terminal and
initial objects, and the check.
One loop runs every check on every tuple of objects and appends one
record each.  A check raises when it, or a witness it builds on, fails;
_guard alone turns the raised CategoryError into a failed record through
CheckResult.from_error, so the record names the first failed equation
and its differing entry.  Stages about a certified iso report the
equations it was certified by.  On an instance without terminal and
initial objects, each stage that needs them reports one
NoNullaryStructure record instead of running.

show prints a single constructed morphism, refusing objects outside the
instance's universe.  It reads the table SHOWS as verify reads STAGES:
each row gives an expression's head, its objects (and so its arity) and
its builder, and the parser, the usage text and the one print path all
come from it.  Exit codes: 0 when every executed check passed, 1
when any failed (or a construction the user asked to see does not
exist, or the reader closed stdout before the output was written), 2 for
unusable arguments.

The JSON report is byte-identical across runs with the same arguments:
the measured duration goes to stderr, and the duration_ms field in the
payload stays null.  render_json prints exactly what
json.dumps(payload, indent=2) would, but in one pass over the records:
json.dumps formats only the config head and the summary tail, and each
record's strings go through json's own C string encoder.  The stderr
line "completed in N ms" (report.duration_ms) is the time of run_suite
alone; rendering the report is not in it.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from .construction import (
    _grid,
    _star_grid,
    biproduct,
    c_map,
    canonical_mixed_map,
    hom_add,
    idempotents,
    t_inverse,
    verify_interchange,
    verify_intertwining,
    verify_semiadditive,
    zero_map,
    zero_object,
)
from .errors import CategoryError, InvalidBounds, ParseError, UnknownInstance
from .instances import Instance, resolve
from .kernel import CheckResult, InversePair, Mor, equation
from .monoidal import dist_coprod, dist_prod, has_nullary, nullary_coprod, nullary_prod
from .structure import (
    ENUM_CAP, Mat2, draw, matrix_of, verify_coproduct_witness, verify_product_witness
)

# per-homset sample size for the commutative-monoid law scans
LAW_SAMPLE_CAP = 5
# largest object bound either command accepts
MAX_SIZE = 16

class _SuiteFields(NamedTuple):
    instance: str = "finrel"
    max_size: int = 2
    max_quad: int | None = None
    samples: int = 25
    seed: int = 0
    report: str = "text"


class SuiteConfig(_SuiteFields):
    """The options of one verify run, checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SuiteConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.max_size < 1 or self.max_size > MAX_SIZE:
            raise InvalidBounds(f"max size must be between 1 and {MAX_SIZE}")
        top = min(4, self.max_size)
        if self.max_quad is None:
            # triple and quadruple stages grow as fourth powers, so they get
            # their own, smaller default bound
            self = self._replace(max_quad=min(self.max_size, 2))
        elif not 1 <= self.max_quad <= top:
            raise InvalidBounds(f"quad bound must be between 1 and min(4, max size) = {top}")
        # drawing more pairs than the exhaustive cap adds no coverage
        if not 1 <= self.samples <= ENUM_CAP:
            raise InvalidBounds(f"samples must be between 1 and {ENUM_CAP}")
        if self.report not in ("text", "json"):
            raise InvalidBounds(f"unknown report format {self.report!r}")
        return self


class CheckRecord(NamedTuple):
    suite: str
    objects: tuple[str, ...]
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None


class Report(NamedTuple):
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
    more = f" [+{len(fails) - 1} more]" if len(fails) > 1 else ""
    return f"{fails[0]}{more}"


def _guard(checks: list[CheckRecord], suite: str, names: tuple[str, ...], thunk) -> None:
    """Run one check; a raised CategoryError becomes a failed record."""
    try:
        res = thunk()
    except CategoryError as exc:
        res = CheckResult.from_error(suite, exc)
    checks.append(CheckRecord(suite, names, None if res.passed else _failure_text(res)))


def _certificates(name: str, *isos: InversePair) -> CheckResult:
    """The equations the given isos were certified by, as one result."""
    return CheckResult(name, tuple(chk for ip in isos for chk in ip.equations.details))


def _nullary_check(inst) -> CheckResult:
    zw = zero_object(inst)
    return _certificates("nullary", zw.to_terminal, zw.from_initial)


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
    drawn, exhaustive = draw(run.inst, run.rng, [(a, b)], LAW_SAMPLE_CAP)
    homs = [h for (h,) in drawn]
    if exhaustive and len(homs) > LAW_SAMPLE_CAP:
        return run.rng.sample(homs, LAW_SAMPLE_CAP)
    return homs


def _native_agreement(run: _Run, a, b) -> CheckResult:
    """Compare hom_add with the instance's own addition, when it has one.

    Vacuously passes when native_add is unsupported or the homset is
    empty; exhausts small homsets, otherwise draws run.samples seeded pairs.
    """
    pairs, _ = draw(run.inst, run.rng, [(a, b), (a, b)], run.samples)
    details = []
    for i, (f, g) in enumerate(pairs):
        native = run.inst.native_add(f, g)
        if native is None:
            break
        details.append(equation(f"hom_add=native#{i}", hom_add(f, g), native))
    return CheckResult("native-add", tuple(details))


class Stage(NamedTuple):
    """One row of the suite: check(run, *objects) for every arity-tuple of objects.

    A stage of arity 3 or more draws its objects up to max_quad, any other
    up to max_size.  A needs_nullary stage does not run on an instance
    without terminal and initial objects.
    """

    name: str
    arity: int
    needs_nullary: bool
    check: Callable[..., CheckResult]


# The suite, in report order.  Checks look their callees up by name when
# they run, so anything that rebinds a module attribute sees every call.
STAGES = (
    Stage("nullary", 0, True, lambda run: _nullary_check(run.inst)),
    Stage(
        "nullary-distributors", 1, True,
        lambda run, a: _certificates("nullary-distributors", nullary_prod(a), nullary_coprod(a)),
    ),
    Stage(
        "product-witness", 2, False,
        lambda run, a, b: verify_product_witness(run.inst.product(a, b), run.objs, run.rng),
    ),
    Stage(
        "coproduct-witness", 2, False,
        lambda run, a, b: verify_coproduct_witness(run.inst.coproduct(a, b), run.objs, run.rng),
    ),
    Stage("dist-prod", 3, False, lambda run, a, b, c: dist_prod(a, b, c).equations),
    Stage("dist-coprod", 3, False, lambda run, a, b, c: dist_coprod(a, b, c).equations),
    Stage("interchange", 4, False, lambda run, *quad: verify_interchange(*quad)),
    Stage("t-inverse", 2, False, lambda run, a, b: t_inverse(a, b).equations),
    Stage("intertwining", 2, True, lambda run, a, b: verify_intertwining(a, b)),
    Stage("canonical", 2, True, lambda run, a, b: _canonical_check(a, b)),
    Stage("biproduct", 2, True, lambda run, a, b: biproduct(a, b).equations),
    Stage(
        "hom-add-laws", 2, True,
        lambda run, a, b: verify_semiadditive(_homset_sample(run, a, b)),
    ),
    Stage("hom-add-native", 2, True, _native_agreement),
    Stage(
        "bilinearity", 3, True,
        lambda run, a, b, c: verify_semiadditive(
            _homset_sample(run, a, b) + _homset_sample(run, b, c)
        ),
    ),
)


def run_suite(config: SuiteConfig) -> Report:
    inst = resolve(config.instance, config.max_size)
    start = time.perf_counter()
    checks: list[CheckRecord] = []
    objs = inst.objects(config.max_size)
    quad_objs = inst.objects(config.max_quad)
    run = _Run(inst, random.Random(config.seed), objs, config.samples)
    nullary_ok = has_nullary(inst)
    for stage in STAGES:
        if stage.needs_nullary and not nullary_ok:
            # the nullary record stands for its distributors
            if stage.name != "nullary-distributors":
                checks.append(CheckRecord(stage.name, (), "NoNullaryStructure"))
            continue
        pool = quad_objs if stage.arity >= 3 else objs
        for tup in itertools.product(pool, repeat=stage.arity):
            names = tuple(x.name for x in tup)
            _guard(checks, stage.name, names, lambda: stage.check(run, *tup))
    duration = (time.perf_counter() - start) * 1000.0
    return Report(config, tuple(checks), duration)


def render_json(report: Report) -> str:
    """The report exactly as json.dumps(payload, indent=2) + "\\n" prints it.

    json.dumps writes only the config head and the summary tail.  Each
    record goes straight into the layout json.dumps gives it at nesting
    level 2, its strings through the C encoder json.dumps itself uses, and
    the parts are joined once: no dict is built per record, and the pure
    Python encoder that an indenting json.dumps takes never runs.
    """
    head = json.dumps({"config": report.config._asdict()}, indent=2)
    tail = json.dumps(
        {"summary": {"passed": report.passed, "failed": report.failed}, "duration_ms": None},
        indent=2,
    )
    parts = [head[:-2], ',\n  "checks": [']
    sep = "\n    "
    for c in report.checks:
        objects = ",\n        ".join(map(encode_basestring_ascii, c.objects))
        objects = f"[\n        {objects}\n      ]" if c.objects else "[]"
        passed = "true" if c.failure is None else (
            f'false,\n      "failure": {encode_basestring_ascii(c.failure)}'
        )
        parts.append(
            f'{sep}{{\n      "suite": {encode_basestring_ascii(c.suite)},'
            f'\n      "objects": {objects},\n      "passed": {passed}\n    }}'
        )
        sep = ",\n    "
    parts += ["\n  ]," if report.checks else "],", tail[1:], "\n"]
    return "".join(parts)


def render_text(report: Report) -> str:
    cfg = report.config
    lines = [
        " ".join(f"{name}={getattr(cfg, name)}" for name in cfg._fields if name != "report")
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


def _grid_parts(g) -> tuple[Mor, Mat2]:
    return g.map, g.corners


def _c_parts(a, b) -> tuple[Mor, Mat2]:
    c = c_map(a, b).fwd
    return c, matrix_of(c, a.cat.coproduct(a, b), a.cat.product(a, b))


# The show expressions, in usage order.  Each maps its head to a pair: its
# objects as the usage text spells them (one more than commas), and a
# builder from those objects to the map and the Mat2 of its components, or
# to the map and None where show prints no entries.  Builders look their
# callees up by name when they run, as the STAGES checks do.
SHOWS = {
    "star": ("a1,a2,b1,b2", lambda *quad: _grid_parts(_star_grid(*quad))),
    "t": ("a,b", lambda a, b: _grid_parts(_grid(a, a, b, b))),
    "c": ("a,b", _c_parts),
    "e": ("a,b", lambda a, b: (idempotents(a, b)[0], None)),
    "e'": ("a,b", lambda a, b: (idempotents(a, b)[1], None)),
    "zero": ("a,b", lambda a, b: (zero_map(a, b), None)),
}
_HEAD = re.compile(r"^\s*([^\s()]+)\s*\(([^()]*)\)\s*$")
_FORMS = [f"{head}({objects})" for head, (objects, _) in SHOWS.items()]
_USAGE = f"expected {', '.join(_FORMS[:-1])} or {_FORMS[-1]}"


def _parse_expression(text: str) -> tuple[str, list[str]]:
    m = _HEAD.match(text)
    if not m or m.group(1) not in SHOWS:
        raise ParseError(f"cannot parse {text!r}; {_USAGE}")
    head = m.group(1)
    inner = m.group(2).strip()
    parts = [s.strip() for s in inner.split(",")] if inner else []
    if any(not p for p in parts):
        raise ParseError("empty object in argument list")
    arity = SHOWS[head][0].count(",") + 1
    if len(parts) != arity:
        raise ParseError(f"{head} takes {arity} objects, got {len(parts)}")
    return head, parts


def _run_show(args) -> int:
    if args.max_size > MAX_SIZE:
        raise InvalidBounds(f"max size must be at most {MAX_SIZE}, got {args.max_size}")
    inst = resolve(args.instance, args.max_size)
    head, parts = _parse_expression(args.expression)
    m, components = SHOWS[head][1](*[inst.parse_obj(t) for t in parts])
    print(inst.format_mor(m))
    for j, k, entry in components.entries() if components else ():
        print(f"  [{j},{k}] {inst.format_mor(entry)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biprod",
        description="verify biproduct structure on finite category instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # verify states no defaults: an option not given is left out of the
    # namespace, so SuiteConfig's own default applies
    v = sub.add_parser(
        "verify",
        help="run the staged check suite on one instance",
        argument_default=argparse.SUPPRESS,
    )
    v.add_argument("--instance", help="instance selector")
    v.add_argument("--max-size", type=int, help="object bound for pair stages")
    v.add_argument(
        "--max-quad",
        type=int,
        help="object bound for triple/quadruple stages (default: min(max-size, 2))",
    )
    v.add_argument("--samples", type=int, help="seeded pairs per hom-add-native check")
    v.add_argument("--seed", type=int, help="seed for every random draw")
    v.add_argument("--report", choices=("text", "json"))
    s = sub.add_parser("show", help="print one constructed morphism")
    s.add_argument("expression", help="e.g. 't(1,2)', 'star(1,1,2,2)', 'zero(2,3)'")
    s.add_argument("--instance", default="finrel")
    s.add_argument("--max-size", type=int, default=3)
    return parser


# Built once at import: parse_args keeps no state between calls, so a
# request pays only for parsing its own arguments.
PARSER = _build_parser()


def _run_verify(args) -> int:
    given = (name for name in SuiteConfig._fields if hasattr(args, name))
    config = SuiteConfig(**{name: getattr(args, name) for name in given})
    report = run_suite(config)
    if config.report == "json":
        sys.stdout.write(render_json(report))
        print(f"completed in {report.duration_ms:.0f} ms", file=sys.stderr)
    else:
        sys.stdout.write(render_text(report))
    return 0 if report.failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        status = (_run_verify if args.command == "verify" else _run_show)(args)
        # flushed inside the try, so a reader that closed early is caught below
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout goes to os.devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UnknownInstance, InvalidBounds, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CategoryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
