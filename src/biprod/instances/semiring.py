"""Commutative semirings and the tuple-of-tuples matrix helpers over them.

Matrices are immutable so they can sit inside morphism payloads: a
morphism with r-dimensional codomain and c-dimensional domain carries an
r-tuple of c-tuples.  Dimension zero is taken seriously: a 0 x c matrix
is the empty tuple and an r x 0 matrix is r empty rows.

matmul is row-sparse (Gustavson, ACM TOMS 4(3), 1978): the structural
matrices the construction multiplies are nearly all zeros, so it multiplies
only nonzero entries, summing each output entry's terms in ascending inner
index from the semiring's zero; results are the dense product's, in value
and in type.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence


@dataclass(frozen=True, eq=False)
class Semiring:
    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    sample: Callable[[random.Random], Any]
    # finite list of all elements, or None when there are infinitely many
    carrier: tuple | None = None
    render: Callable[[Any], str] = str


BOOLEANS = Semiring(
    name="bool",
    zero=False,
    one=True,
    add=lambda x, y: x or y,
    mul=lambda x, y: x and y,
    sample=lambda rng: rng.random() < 0.5,
    carrier=(False, True),
    render=lambda v: "1" if v else "0",
)

NATURALS = Semiring(
    name="nat",
    zero=0,
    one=1,
    add=lambda x, y: x + y,
    mul=lambda x, y: x * y,
    sample=lambda rng: rng.randint(0, 5),
)

RATIONALS = Semiring(
    name="rat",
    zero=Fraction(0),
    one=Fraction(1),
    add=lambda x, y: x + y,
    mul=lambda x, y: x * y,
    sample=lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
)


def identity_matrix(sr: Semiring, n: int) -> tuple:
    return tuple(
        tuple(sr.one if i == j else sr.zero for j in range(n)) for i in range(n)
    )


def zero_matrix(sr: Semiring, rows: int, cols: int) -> tuple:
    return tuple(tuple(sr.zero for _ in range(cols)) for _ in range(rows))


def matmul(sr: Semiring, a: tuple, b: tuple, inner: int, cols: int) -> tuple:
    """a @ b where a is len(a) x inner and b is inner x cols."""
    if inner == 0:
        return zero_matrix(sr, len(a), cols)
    add, mul, zero = sr.add, sr.mul, sr.zero
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [zero] * cols
        for x, entries in zip(row, b_nonzero):
            if x:
                for j, y in entries:
                    acc[j] = add(acc[j], mul(x, y))
        out.append(tuple(acc))
    return tuple(out)


def matrix_add(sr: Semiring, a: tuple, b: tuple) -> tuple:
    return tuple(
        tuple(sr.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def hstack(a: tuple, b: tuple) -> tuple:
    return tuple(ra + rb for ra, rb in zip(a, b))


def vstack(a: tuple, b: tuple) -> tuple:
    return tuple(a) + tuple(b)


def kronecker(
    sr: Semiring,
    a: tuple,
    b: tuple,
    a_rows: int,
    a_cols: int,
    b_rows: int,
    b_cols: int,
) -> tuple:
    """Tensor of matrices: row (i,k) maps to i*b_rows+k, column (j,l) to j*b_cols+l."""
    return tuple(
        tuple(sr.mul(a[i][j], b[k][l]) for j in range(a_cols) for l in range(b_cols))
        for i in range(a_rows)
        for k in range(b_rows)
    )


def inverse_permutation_matrix(sr: Semiring, mapping: Sequence[int]) -> tuple:
    """Inverse of the permutation sending basis vector j to basis vector mapping[j]."""
    n = len(mapping)
    rows = []
    for j in range(n):
        row = [sr.zero] * n
        row[mapping[j]] = sr.one
        rows.append(tuple(row))
    return tuple(rows)
