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
terminal and initial are set.  rho and the four distributor inverses
are identities wherever the tensor yields one object for both ends
(_strict), and raise MissingStructure elsewhere, a CategoryError that
the command line reports as a failed record; monoidal's certificates
still check them.  parse_obj is the inverse of an object's name:
parse_obj(x.name) is x, and text no object is named is refused.
enumerate_homset is optional: without it every homset is drawn from
random_morphism, which is not.  Its default raises MissingStructure, so
a check that needs a draw fails instead of passing on no equations; an
instance whose homsets can be empty returns None for those.

An instance is fixed once built, by one rule: an attribute may be set
once, never where the instance's class defines a callable, never under a
dunder name (so __dict__ cannot be swapped whole), and never deleted; a
breach raises AttributeError.  So terminal, initial, unit and
each constructor's own fields (a semiring, a window, a product's
components) keep the values they were built with, and no method can be
shadowed on an instance, be it structure, composition, enumeration or
formatting; a different witness takes a subclass.  What the construction
derives from that structure lives in the instance's own memo (made by
Category, filled through kernel.per_instance), so a memoized certificate
never outlives the witnesses it was certified with, nor the instance
itself.  Each module that memoizes there says what it keeps.
"""
from __future__ import annotations

import random

from ..errors import InvalidBounds, MissingStructure, ParseError
from ..kernel import Category, InversePair, Mor, Obj, identity
from ..structure import CoproductWitness, ProductWitness


def read_int(text: str) -> int:
    """The integer whose name text is, for instances whose objects are integers.

    Only the digits an integer prints as are read: no '+', no leading zero,
    no '_' and no digits of other scripts, though int() takes them all.
    """
    text = text.strip()
    try:
        n = int(text)
    except ValueError:
        raise ParseError(f"cannot read object {text!r} as an integer") from None
    if str(n) != text:
        raise ParseError(f"cannot read object {text!r}; it prints as {n}")
    return n


class Instance(Category):
    terminal: Obj | None = None
    initial: Obj | None = None
    unit: Obj

    def __setattr__(self, attr: str, value) -> None:
        # set once, never over a method or a dunder; see the module docstring
        dunder = attr.startswith("__") and attr.endswith("__")
        if dunder or attr in self.__dict__ or callable(getattr(type(self), attr, None)):
            raise self._fixed(attr)
        super().__setattr__(attr, value)

    def __delattr__(self, attr: str) -> None:
        raise self._fixed(attr)

    def _fixed(self, attr: str) -> AttributeError:
        return AttributeError(f"instance {self.name}: {attr} is fixed once the instance is built")

    def objects(self, bound: int | None = None) -> list[Obj]:
        """The object universe, optionally clipped to a smaller bound."""
        raise NotImplementedError

    def parse_obj(self, text: str) -> Obj:
        """The object named text; ParseError or InvalidBounds if none."""
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
        eye = self._strict("rho", (a,), a, self.tensor_obj(a, self.unit))
        return InversePair.certify(eye, eye, context=f"rho({a.name})")

    def prod_inv(self, a: Obj, b: Obj, c: Obj) -> Mor:
        ab_ac = self.product(self.tensor_obj(a, b), self.tensor_obj(a, c)).apex
        a_bc = self.tensor_obj(a, self.product(b, c).apex)
        return self._strict("prod_inv", (a, b, c), ab_ac, a_bc)

    def coprod_inv(self, a: Obj, b: Obj, c: Obj) -> Mor:
        ab_c = self.tensor_obj(self.coproduct(a, b).apex, c)
        ac_bc = self.coproduct(self.tensor_obj(a, c), self.tensor_obj(b, c)).apex
        return self._strict("coprod_inv", (a, b, c), ab_c, ac_bc)

    def nullary_prod_inv(self, a: Obj) -> Mor:
        one = self.terminal
        return self._strict("nullary_prod_inv", (a,), one, one and self.tensor_obj(a, one))

    def nullary_coprod_inv(self, a: Obj) -> Mor:
        zero = self.initial
        return self._strict("nullary_coprod_inv", (a,), zero, zero and self.tensor_obj(zero, a))

    def _strict(self, method: str, objs: tuple[Obj, ...], x: Obj | None, y: Obj | None) -> Mor:
        """identity(x) when the map's two ends x and y are one object; else refuse."""
        if x is None or x is not y:
            where = ",".join(o.name for o in objs)
            raise MissingStructure(
                f"instance {self.name}: the tensor is not strict at {where}; override {method}"
            )
        return identity(x)

    def enumerate_homset(self, a: Obj, b: Obj) -> tuple[Mor, ...] | None:
        """All morphisms a -> b as a tuple, or None when there are more than ENUM_CAP."""
        return None

    def random_morphism(self, rng: random.Random, a: Obj, b: Obj) -> Mor | None:
        """A random morphism a -> b, or None when the homset is empty."""
        raise MissingStructure(f"instance {self.name}: no sampler; override random_morphism")

    def native_add(self, f: Mor, g: Mor) -> Mor | None:
        """The instance's own notion of adding parallel morphisms, if any."""
        return None
