"""Core vocabulary: objects, morphisms, composition, and equation checking.

A Category subclass supplies payload-level behaviour (how identities look,
how payloads compose, how to print things).  Every record is immutable
and has no per-record __dict__.  A record compared by value is a named
tuple, and so is Mor, which is interned and compared by identity (see
below); any other record compared by identity, or by only some of its
fields, is a Frozen class, whose fields are its __slots__, each set once
by Frozen's one __init__, by position in __slots__ order or by keyword.
Objects are Frozen and compare by identity: Category.obj interns them by
data, so build them only with cat.obj or parse_obj, never Obj(...).
An object carries its name, which Category.obj asks of the category's
spell hook once, when it interns the object; an Obj prints as its name,
and every record, certificate and failure text reads it from there.
Because objects are interned, the kernel and the structure built on it
compare endpoints with `is`; Obj keeps object's own eq and hash, so `==`
on objects means the same thing.  Morphisms are interned too (hash-consed:
Filliatre and Conchon, "Type-safe modular hash-consing", 2006):
Category.mor, identity and compose all return the category's one Mor for
(dom, cod, payload), which Category._interned, the one builder of a Mor,
keeps in the category's table _mors.  So a Mor, a named tuple, takes
object's eq and hash: two morphisms are equal exactly when they are the
same object, every key holding one hashes in O(1), and equation compares
its sides with `is`.  That is sound, since identity implies equality: a
morphism built outside the table can only fail an equation, never pass
one.  Payloads are interned by `==` and hash, so 0 and 0.0 give one
morphism, with the payload interned first.  A Mor compared with a plain
tuple still compares by value, through tuple's reflected `==`.
EquationCheck and CheckResult are named tuples compared by their fields.
The hot builders (_interned, equation) make their records with
tuple.__new__ directly, which gives the same record as the named tuple's
constructor without its extra call.
Verification code never asserts; it returns CheckResult values that list
every equation tried.  A failed equation becomes an error one way only:
CheckResult.require(), which raises WitnessInvalid on the first failed
equation.  An error becomes a failed result one way only:
CheckResult.from_error(), which the command line's cli._guard alone
calls.  An InversePair keeps its certificate as equations, which take no
part in its equality.  per_instance memoizes a function of an instance
in that instance's memo, a dict that Category.__init__ makes beside its
object and identity tables; its first argument is the instance, an
object of it or a morphism of it.  InversePair.certify keeps each passing
round-trip check in the same memo, keyed by (fwd, bwd), so an iso is
checked once per instance however many contexts certify it; each
certificate still carries its own context's name, and a failing check
is kept nowhere, so it raises at every use.  compose keeps each
composite in the category's composite memo _composites, keyed by the
identities (g, f) and looked up before the ends are checked: the
composite is a pure function of its factors, and a compose that raises
stores nothing.  It holds at most COMPOSITE_CAP entries and is cleared
when full, so composites of sampled morphisms that never recur are not
kept for the instance's lifetime.  The morphism table, the composite
memo and memo are the instance's own, so each lives and dies with it.

Memoized certificates keep many of these records alive, so they are kept
small: no record here has a per-record __dict__, Category.obj interns
objects (equal data gives the category's one Obj), the table interns
morphisms (equal values give one Mor, and identity_payload runs once per
object), and a passing equation holds its one morphism as both sides.
"""
from __future__ import annotations

import functools
from typing import Any, NamedTuple

from .errors import CategoryError, DomainMismatch, WitnessInvalid

# builds a named-tuple record from a tuple of its fields in one step
_new = tuple.__new__

# the most composites a category's composite memo keeps at once; see compose
COMPOSITE_CAP = 4096


class Frozen:
    """Base of the slotted records: no field is assigned or deleted after __init__.

    A subclass names its fields in __slots__; __init__ takes each of them
    exactly once, by position in __slots__ order or by keyword, and
    raises TypeError before setting any field otherwise.  It compares and
    hashes by identity unless it defines __eq__ and __hash__.
    """

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self.__slots__
        if kwargs:
            # the fields after the positional ones, in order, out of the keywords
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        # a field missing shortens args; an unknown or repeated one stays in kwargs
        if len(args) != len(fields) or kwargs:
            raise TypeError(
                f"{type(self).__name__} takes each of its fields"
                f" {', '.join(fields)} exactly once"
            )
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Obj(Frozen):
    __slots__ = ("cat", "data", "name")

    def __repr__(self) -> str:
        return self.name


class Mor(NamedTuple):
    dom: Obj
    cod: Obj
    payload: Any

    # interned by Category._interned, so object's own eq and hash decide
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return self.dom.cat.format_mor(self)


class Category:
    """Hooks a concrete category implements, plus object/morphism builders."""

    def __init__(self, name: str):
        self.name = name
        self._objs: dict = {}  # data -> its one Obj; see obj
        self._ids: dict = {}  # Obj -> its one identity; see identity
        self._mors: dict = {}  # (dom, cod, payload) -> its one Mor; see _interned
        self._composites: dict = {}  # (g, f) -> compose(g, f), at most COMPOSITE_CAP
        self.memo: dict = {}  # (fn, args) -> fn(*args); see per_instance, InversePair.certify

    # payload hooks

    def identity_payload(self, a: Obj) -> Any:
        raise NotImplementedError

    def compose_payload(self, g: Mor, f: Mor) -> Any:
        raise NotImplementedError

    # presentation hooks

    def spell(self, data: Any) -> str:
        """The name of the object with this data, asked once, when obj interns it."""
        return repr(data)

    def format_mor(self, f: Mor) -> str:
        return f"{f.dom} -> {f.cod}: {f.payload!r}"

    def first_difference(self, f: Mor, g: Mor) -> str | None:
        """Short human-readable locator for why two parallel morphisms differ."""
        return None

    # builders

    def obj(self, data: Any) -> Obj:
        """The object with this data: one Obj per data, interned in the category."""
        a = self._objs.get(data)
        if a is None:
            a = self._objs[data] = Obj(self, data, self.spell(data))
        return a

    def mor(self, dom: Obj, cod: Obj, payload: Any) -> Mor:
        """The morphism dom -> cod with this payload: one Mor per value, interned."""
        if dom.cat is not self or cod.cat is not self:
            raise DomainMismatch("morphism endpoints belong to a different category")
        return self._interned(dom, cod, payload)

    def _interned(self, dom: Obj, cod: Obj, payload: Any) -> Mor:
        """The category's one Mor for (dom, cod, payload); the only builder of a Mor."""
        key = (dom, cod, payload)
        # setdefault hashes the key once, hit or miss
        return self._mors.setdefault(key, _new(Mor, key))


def identity(a: Obj) -> Mor:
    """The identity on a: one Mor per object, interned in its category."""
    ids = a.cat._ids
    one = ids.get(a)
    if one is None:
        cat = a.cat
        one = ids[a] = cat._interned(a, a, cat.identity_payload(a))
    return one


def compose(g: Mor, f: Mor) -> Mor:
    """g after f.  Raises DomainMismatch unless f.cod is g.dom.

    Looks (g, f) up in the category's composite memo first; a composite
    is kept only once the ends have matched, so a key that is there has
    matched already.  Two categories never share an object, so matching
    ends also mean one category; the cross-category test runs only on a
    mismatch.  A compose that raises stores nothing.
    """
    cat = f.dom.cat
    composites = cat._composites
    key = (g, f)
    h = composites.get(key)
    if h is None:
        if f.cod is not g.dom:
            if g.dom.cat is not cat:
                raise DomainMismatch("cannot compose morphisms from different categories")
            raise DomainMismatch(
                f"cannot compose: first factor ends at {f.cod}, second starts at {g.dom}"
            )
        h = cat._interned(f.dom, g.cod, cat.compose_payload(g, f))
        if len(composites) >= COMPOSITE_CAP:
            composites.clear()
        composites[key] = h
    return h


class EquationCheck(NamedTuple):
    label: str
    lhs: Mor | None
    rhs: Mor | None
    ok: bool
    note: str = ""

    def __str__(self) -> str:
        return f"{self.label} ({self.note})" if self.note else self.label


class CheckResult(NamedTuple):
    name: str
    details: tuple[EquationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(chk.ok for chk in self.details)

    def failures(self) -> tuple[EquationCheck, ...]:
        return tuple(chk for chk in self.details if not chk.ok)

    def require(self) -> "CheckResult":
        """This result if every equation holds; else raise on the first failure."""
        for chk in self.details:
            if not chk.ok:
                raise WitnessInvalid(f"{self.name}: {chk}", self)
        return self

    @classmethod
    def from_error(cls, name: str, exc: CategoryError) -> "CheckResult":
        """Fold a raised error into one failed check for reporting.

        A WitnessInvalid's result gives its first failed equation, labelled
        with that result's name; any other error gives its type and message.
        """
        result = exc.result if isinstance(exc, WitnessInvalid) else None
        if result is not None and not result.passed:
            f = result.failures()[0]
            return cls(name, (f._replace(label=f"{result.name}: {f.label}"),))
        return cls(name, (error_check(type(exc).__name__, str(exc)),))

    def describe(self) -> str:
        lines = [f"{self.name}: {'pass' if self.passed else 'FAIL'}"]
        for chk in self.details:
            lines.append(f"  [{'ok' if chk.ok else 'FAIL'}] {chk}")
        return "\n".join(lines)


def equation(label: str, lhs: Mor, rhs: Mor) -> EquationCheck:
    if lhs.dom is not rhs.dom or lhs.cod is not rhs.cod:
        note = f"type mismatch: {lhs.dom} -> {lhs.cod} vs {rhs.dom} -> {rhs.cod}"
        return _new(EquationCheck, (label, lhs, rhs, False, note))
    if lhs is rhs:
        return _new(EquationCheck, (label, rhs, rhs, True, ""))
    note = lhs.dom.cat.first_difference(lhs, rhs) or "payloads differ"
    return _new(EquationCheck, (label, lhs, rhs, False, note))


def error_check(label: str, message: str) -> EquationCheck:
    """A failed check recording an error instead of a comparison."""
    return EquationCheck(label, None, None, False, message)


def check_inverse_pair(fwd: Mor, bwd: Mor, name: str = "inverse pair") -> CheckResult:
    if bwd.dom is not fwd.cod or bwd.cod is not fwd.dom:
        msg = f"candidate inverse has type {bwd.dom} -> {bwd.cod}, expected {fwd.cod} -> {fwd.dom}"
        return CheckResult(name, (error_check("typing", msg),))
    details = (
        equation("bwd*fwd=id", compose(bwd, fwd), identity(fwd.dom)),
        equation("fwd*bwd=id", compose(fwd, bwd), identity(fwd.cod)),
    )
    return CheckResult(name, details)


class InversePair(Frozen):
    """A certified isomorphism: both composites were checked at build time.

    equations is the passing check of both composites.  It is the
    certificate, not the iso, so equality and hashing read fwd and bwd only.
    """

    __slots__ = ("fwd", "bwd", "equations")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.fwd == other.fwd and self.bwd == other.bwd

    def __hash__(self) -> int:
        return hash((self.fwd, self.bwd))

    @classmethod
    def certify(cls, fwd: Mor, bwd: Mor, context: str) -> "InversePair":
        """The iso (fwd, bwd), its certificate named by context.

        A passing check of both round trips is kept in the memo of fwd's
        instance under (check_inverse_pair, (fwd, bwd)), so each distinct
        pair is checked once per instance and a repeat shares its details.
        A failing check is kept nowhere: it raises, named by context, at
        every use.
        """
        memo = fwd.dom.cat.memo
        key = (check_inverse_pair, (fwd, bwd))
        details = memo.get(key)
        if details is None:
            details = memo[key] = check_inverse_pair(fwd, bwd, name=context).require().details
        return cls(fwd, bwd, CheckResult(context, details))


CacheInfo = NamedTuple("CacheInfo", [("hits", int), ("misses", int)])


def per_instance(fn):
    """Memoize fn under (fn, args) in the memo of the instance args[0] is or lives in.

    args[0] is the instance itself (a method's self, zero_object's inst),
    an object of it, or a morphism of it (the instance of f.dom).  A call
    that raises stores nothing; cache_info() counts over all instances.

    Every key and result refers back to the instance, so an instance that
    has memoized anything is in a reference cycle: it is freed by the
    cyclic garbage collector, not when its last reference goes.
    """
    counts = [0, 0]  # hits, misses: indexed by whether the call missed
    missing = object()

    @functools.wraps(fn)
    def memoized(*args):
        owner = args[0]
        kind = type(owner)
        if kind is Mor:
            owner = owner.dom.cat
        elif kind is Obj:
            owner = owner.cat
        key = (fn, args)
        result = owner.memo.get(key, missing)
        counts[result is missing] += 1
        if result is missing:
            result = owner.memo[key] = fn(*args)
        return result

    memoized.cache_info = lambda: CacheInfo(*counts)
    return memoized
