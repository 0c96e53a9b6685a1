"""Concrete instances and the selector used by the command line."""
from __future__ import annotations

from ..errors import InvalidBounds, UnknownInstance
from .base import Instance
from .chain import ChainInstance, z_chain
from .matcat import MAT_SEMIRINGS, MatInstance, finrel, mat_semiring
from .product import ProductInstance, product_instance
from .semiring import BOOLEANS, NATURALS, RATIONALS, Semiring

SELECTORS = ("finrel", "mat-bool", "mat-nat", "mat-rat", "z-chain", "product:<a>+<b>")


def resolve(selector: str, max_size: int) -> Instance:
    """Build the instance named by selector, sized by max_size.

    product:<a>+<b> pairs two selectors; nest by putting the inner
    product on the right, as in product:finrel+product:mat-nat+z-chain.
    A negative max_size is refused here, before any instance is built.
    """
    if max_size < 0:
        raise InvalidBounds(f"max size must be nonnegative, got {max_size}")
    if selector == "finrel":
        return finrel(max_size)
    if selector in MAT_SEMIRINGS:
        return mat_semiring(selector, max_size)
    if selector == "z-chain":
        return z_chain(-max_size, max_size)
    if selector.startswith("product:"):
        rest = selector[len("product:"):]
        if "+" not in rest:
            raise UnknownInstance(
                f"product selector needs two parts joined by +, got {selector!r}"
            )
        lsel, rsel = rest.split("+", 1)
        return product_instance(resolve(lsel, max_size), resolve(rsel, max_size))
    raise UnknownInstance(
        f"unknown instance {selector!r}; known: {', '.join(SELECTORS)}"
    )
