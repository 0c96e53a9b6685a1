"""Concrete instances and the selector used by the command line."""
from __future__ import annotations

from ..errors import InvalidBounds, UnknownInstance
from .base import Instance
from .chain import ChainInstance
from .matcat import MAT_SEMIRINGS, MatInstance, finrel, mat_semiring
from .product import ProductInstance
from .semiring import BOOLEANS, NATURALS, RATIONALS, Semiring

SELECTORS = (*MAT_SEMIRINGS, "z-chain", "product:<a>+<b>")
# deepest product nesting a selector may name; building and running an
# instance recurses once per level, so this keeps far below the interpreter's limit
MAX_PRODUCT_DEPTH = 64


def resolve(selector: str, max_size: int) -> Instance:
    """Build the instance named by selector, sized by max_size.

    product:<a>+<b> pairs two selectors; nest by putting the inner
    product on the right, as in product:finrel+product:mat-nat+z-chain.
    A negative max_size, and a selector nesting more than MAX_PRODUCT_DEPTH
    products, are refused here, before any instance is built.
    """
    if max_size < 0:
        raise InvalidBounds(f"max size must be nonnegative, got {max_size}")
    depth = selector.count("product:")
    if depth > MAX_PRODUCT_DEPTH:
        raise InvalidBounds(
            f"product selectors nest at most {MAX_PRODUCT_DEPTH} deep, got {depth}"
        )
    if selector in MAT_SEMIRINGS:
        return mat_semiring(selector, max_size)
    if selector == "z-chain":
        return ChainInstance(-max_size, max_size)
    if selector.startswith("product:"):
        rest = selector[len("product:"):]
        if "+" not in rest:
            raise UnknownInstance(
                f"product selector needs two parts joined by +, got {selector!r}"
            )
        lsel, rsel = rest.split("+", 1)
        return ProductInstance(resolve(lsel, max_size), resolve(rsel, max_size))
    raise UnknownInstance(
        f"unknown instance {selector!r}; known: {', '.join(SELECTORS)}"
    )
