"""Shared shape of a runnable instance.

An instance is a Category plus the structure the construction consumes,
all of it held as the instance's own data attributes and methods:

  terminal, initial     the terminal and initial objects, or None
  bang, cobang          the unique maps x -> terminal and initial -> x
  product, coproduct    chosen product and coproduct witnesses
  unit                  the tensor unit
  tensor_obj,           the tensor on objects and on morphisms
  tensor_mor
  rho                   the certified right-unit iso a@unit -> a
  prod_inv, coprod_inv, the distributors' inverses; see monoidal
  nullary_prod_inv,
  nullary_coprod_inv

bang, cobang and the two nullary distributors are called only when
terminal and initial are set.  rho and the nullary distributor inverses
are identities unless an instance overrides them; each default first
checks, by object identity, that the tensor is strict there.  parse_obj
reads back what format_obj prints.  Enumeration and random generation
hooks are optional; verifiers fall back gracefully when they are absent.

That structure is fixed at construction: a constructor sets terminal,
initial and unit once each, and reassigning or deleting one afterwards
raises AttributeError.  No instance attribute may shadow one of the
structure methods either; a different witness takes a subclass.  What
the construction derives from that structure lives in the instance's
own memo, made with it, so a memoized certificate never outlives the
witnesses it was certified with, nor the instance itself.  The shipped
instances keep their product and coproduct witnesses in that memo too,
through kernel.per_instance; homset sums are memoized only for the
length of one construction.verify_semiadditive call.
"""
from __future__ import annotations

import random

from ..errors import InvalidBounds, ParseError
from ..kernel import Category, InversePair, Mor, Obj, identity
from ..structure import CoproductWitness, ProductWitness

# the structure a constructor sets once, and the structure methods no
# instance attribute may shadow; see the module docstring
FIXED_STRUCTURE = frozenset({"terminal", "initial", "unit"})
FIXED_METHODS = frozenset({
    "product", "coproduct", "bang", "cobang", "tensor_obj", "tensor_mor", "rho",
    "prod_inv", "coprod_inv", "nullary_prod_inv", "nullary_coprod_inv",
})


def read_int(text: str) -> int:
    """The integer text spells, for instances whose objects are integers."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"cannot read object {text!r} as an integer") from None


class Instance(Category):
    terminal: Obj | None = None
    initial: Obj | None = None
    unit: Obj

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.memo: dict = {}  # derived results and witnesses; see kernel.per_instance

    def __setattr__(self, attr: str, value) -> None:
        self._refuse_change(attr)
        super().__setattr__(attr, value)

    def __delattr__(self, attr: str) -> None:
        self._refuse_change(attr)
        super().__delattr__(attr)

    def _refuse_change(self, attr: str) -> None:
        if attr in FIXED_METHODS or (attr in FIXED_STRUCTURE and attr in self.__dict__):
            raise AttributeError(
                f"instance {self.name}: {attr} is fixed once the instance is built"
            )

    def objects(self, bound: int | None = None) -> list[Obj]:
        """The object universe, optionally clipped to a smaller bound."""
        raise NotImplementedError

    def parse_obj(self, text: str) -> Obj:
        """The object format_obj spells as text; ParseError or InvalidBounds if none."""
        raise NotImplementedError

    def _windowed(self, n: int, lo: int, hi: int) -> Obj:
        """The integer object n, refused unless lo <= n <= hi."""
        if not lo <= n <= hi:
            raise InvalidBounds(f"object {n} is outside {self.name}'s objects {lo}..{hi}")
        return self.obj(n)

    def product(self, a: Obj, b: Obj) -> ProductWitness:
        raise NotImplementedError

    def coproduct(self, a: Obj, b: Obj) -> CoproductWitness:
        raise NotImplementedError

    def bang(self, x: Obj) -> Mor:
        raise NotImplementedError

    def cobang(self, x: Obj) -> Mor:
        raise NotImplementedError

    def tensor_obj(self, a: Obj, b: Obj) -> Obj:
        raise NotImplementedError

    def tensor_mor(self, f: Mor, g: Mor) -> Mor:
        raise NotImplementedError

    def rho(self, a: Obj) -> InversePair:
        if self.tensor_obj(a, self.unit) is not a:
            raise self._no_default("rho", a)
        eye = identity(a)
        return InversePair.certify(eye, eye, context=f"rho({self.format_obj(a)})")

    def prod_inv(self, a: Obj, b: Obj, c: Obj) -> Mor:
        raise NotImplementedError

    def coprod_inv(self, a: Obj, b: Obj, c: Obj) -> Mor:
        raise NotImplementedError

    def nullary_prod_inv(self, a: Obj) -> Mor:
        one = self.terminal
        if one is None or self.tensor_obj(a, one) is not one:
            raise self._no_default("nullary_prod_inv", a)
        return identity(one)

    def nullary_coprod_inv(self, a: Obj) -> Mor:
        zero = self.initial
        if zero is None or self.tensor_obj(zero, a) is not zero:
            raise self._no_default("nullary_coprod_inv", a)
        return identity(zero)

    def _no_default(self, method: str, a: Obj) -> NotImplementedError:
        why = f"the tensor is not strict at {self.format_obj(a)}"
        return NotImplementedError(f"instance {self.name}: {why}; override {method}")

    def enumerate_homset(self, a: Obj, b: Obj) -> list[Mor] | None:
        """All morphisms a -> b, or None when there are more than ENUM_CAP."""
        return None

    def random_morphism(self, rng: random.Random, a: Obj, b: Obj) -> Mor | None:
        """A random morphism a -> b, or None when the homset is empty."""
        return None

    def native_add(self, f: Mor, g: Mor) -> Mor | None:
        """The instance's own notion of adding parallel morphisms, if any."""
        return None
