"""Shared shape of a runnable instance.

An instance is a Category plus the structure the construction consumes:
chosen products and coproducts, optional terminal/initial witnesses, a
tensor, and distributivity witnesses.  Enumeration and random generation
hooks are optional; verifiers fall back gracefully when they are absent.

That structure is fixed at construction: a constructor sets terminal,
initial, tensor and distributors once each, and reassigning or deleting
one afterwards raises AttributeError.  The product and coproduct methods
cannot be shadowed on an instance either; a different witness takes a
subclass.  What the construction derives from that structure lives in
the instance's own memo, made with it, so a memoized certificate never
outlives the witnesses it was certified with, nor the instance itself.
The shipped instances keep their product and coproduct witnesses in
that memo too, through kernel.per_instance; homset sums are memoized
only for the length of one construction.verify_semiadditive call.
"""
from __future__ import annotations

import random

from ..kernel import Category, Mor, Obj
from ..monoidal import DistributorWitnesses, TensorWitness
from ..structure import (
    ENUM_CAP,
    CoproductWitness,
    InitialWitness,
    ProductWitness,
    TerminalWitness,
)

# the structure a constructor sets once, and the witness methods no
# instance attribute may shadow; see the module docstring
FIXED_STRUCTURE = frozenset({"terminal", "initial", "tensor", "distributors"})
FIXED_METHODS = frozenset({"product", "coproduct"})


class Instance(Category):
    terminal: TerminalWitness | None = None
    initial: InitialWitness | None = None
    tensor: TensorWitness
    distributors: DistributorWitnesses

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

    def product(self, a: Obj, b: Obj) -> ProductWitness:
        raise NotImplementedError

    def coproduct(self, a: Obj, b: Obj) -> CoproductWitness:
        raise NotImplementedError

    def enumerate_homset(self, a: Obj, b: Obj, cap: int = ENUM_CAP) -> list[Mor] | None:
        """All morphisms a -> b, or None when there are more than cap."""
        return None

    def random_morphism(self, rng: random.Random, a: Obj, b: Obj) -> Mor | None:
        """A random morphism a -> b, or None when the homset is empty."""
        return None

    def native_add(self, f: Mor, g: Mor) -> Mor | None:
        """The instance's own notion of adding parallel morphisms, if any."""
        return None
