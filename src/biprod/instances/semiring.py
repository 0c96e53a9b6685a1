"""Commutative semirings and the tuple-of-tuples matrix helpers over them.

Matrices are immutable so they can sit inside morphism payloads: a
morphism with r-dimensional codomain and c-dimensional domain carries an
r-tuple of c-tuples.  Dimension zero is taken seriously: a 0 x c matrix
is the empty tuple and an r x 0 matrix is r empty rows.

The rationals are normalised (num, den) pairs of ints, den > 0 and gcd 1,
so tuple equality is value equality and payloads hash and compare in C.
Their arithmetic returns the semiring's own zero and one objects for 0
and 1: a morphism is interned with the first payload of its value, so a
zero or one made by arithmetic would otherwise stand in for the
structural ones and turn the identity shortcuts below into arithmetic.

matmul is row-sparse (Gustavson, ACM TOMS 4(3), 1978): the structural
matrices the construction multiplies are nearly all zeros, so it multiplies
only nonzero entries, summing each output entry's terms in ascending inner
index from the semiring's zero; results are the dense product's, in value
and in type.

Those structural matrices hold the semiring's own zero and one objects:
identities, injections, projections and permutations all come from one
builder, zero_one_matrix, and a zero map, composed through the zero
object, is matmul's row of sr.zero.  So matmul and kronecker recognise
them by identity and use only laws every semiring has:

    0 + v = v,   1 * v = v * 1 = v,   0 * v = v * 0 = 0.

matmul first reads its left factor as a selection: when every row's
entries equal zero but for at most one, and that one *is* sr.one, row r
of the product is the row of b that the one picks, or a row of sr.zero,
with no arithmetic at all.  Otherwise it runs the general loop, where an
entry that *is* sr.zero is skipped, and one that *is* sr.one kept,
without comparing it with sr.zero; a factor that *is* sr.one gives the
other factor without sr.mul; a sum that still *is* sr.zero takes its
first term without sr.add.  Every other entry, even one equal to zero or
one, is compared with zero by != and goes through mul and add.  As
identity implies equality, the results are the dense product's, in value
and in type, for entries of the carrier's own type.
"""
from __future__ import annotations

from math import gcd
from typing import Iterable

from ..kernel import Frozen


class Semiring(Frozen):
    """A commutative semiring (add, mul, zero, one) on Python values.

    matmul and kronecker apply its laws 0 + v = v, 1 * v = v and
    0 * v = 0 to the zero and one objects themselves, and matmul skips
    an entry when entry != zero is False, never by Python truthiness:
    zero need not be falsy, and in the tropical semiring zero is inf and
    one is 0.  carrier is the finite tuple of all elements, or None when
    there are infinitely many; render spells an element.  Every field is
    stated: Frozen's one constructor has no defaults.
    """

    __slots__ = ("zero", "one", "add", "mul", "sample", "carrier", "render")


BOOLEANS = Semiring(
    zero=False,
    one=True,
    add=lambda x, y: x or y,
    mul=lambda x, y: x and y,
    sample=lambda rng: rng.random() < 0.5,
    carrier=(False, True),
    render=lambda v: "1" if v else "0",
)

NATURALS = Semiring(
    zero=0,
    one=1,
    add=lambda x, y: x + y,
    mul=lambda x, y: x * y,
    sample=lambda rng: rng.randint(0, 5),
    carrier=None,
    render=str,
)


def _rational(num: int, den: int) -> tuple[int, int]:
    """num/den, den > 0, as the normalised pair: gcd 1 and a positive denominator."""
    if num == 0:
        return _RAT_ZERO
    if num == den:
        return _RAT_ONE
    g = gcd(num, den)
    return num // g, den // g


_RAT_ZERO = (0, 1)
_RAT_ONE = (1, 1)

RATIONALS = Semiring(
    zero=_RAT_ZERO,
    one=_RAT_ONE,
    add=lambda x, y: _rational(x[0] * y[1] + y[0] * x[1], x[1] * y[1]),
    mul=lambda x, y: _rational(x[0] * y[0], x[1] * y[1]),
    sample=lambda rng: _rational(rng.randint(-5, 5), rng.randint(1, 5)),
    carrier=None,
    render=lambda v: str(v[0]) if v[1] == 1 else f"{v[0]}/{v[1]}",
)


def zero_one_matrix(sr: Semiring, cols: int, picks: Iterable[int | None]) -> tuple:
    """One row per pick: sr.one in column pick and sr.zero elsewhere, or all sr.zero for None."""
    zero = sr.zero
    rows = []
    for j in picks:
        row = [zero] * cols
        if j is not None:
            row[j] = sr.one
        rows.append(tuple(row))
    return tuple(rows)


def identity_matrix(sr: Semiring, n: int) -> tuple:
    return zero_one_matrix(sr, n, range(n))


def matmul(sr: Semiring, a: tuple, b: tuple, inner: int, cols: int) -> tuple:
    """a @ b where a is len(a) x inner and b is inner x cols."""
    add, mul, zero, one = sr.add, sr.mul, sr.zero, sr.one
    # a selection first: count(zero) counts the entries the general loop
    # skips, those equal to zero, and only sr.one itself may pick a row of
    # b, as an equal one (min-plus's 0.0) would change the product's types
    out = []
    zero_row = (zero,) * cols
    for row in a:
        zeros = row.count(zero)
        if zeros == inner:
            out.append(zero_row)
        elif zeros == inner - 1 and one in row and row[k := row.index(one)] is one:
            out.append(b[k])
        else:
            break
    else:
        return tuple(out)
    # plain loops: a comprehension closing over zero and one would turn
    # them into cell variables, which costs more than it saves on the tiny
    # products most calls make (before Python 3.12 inlines comprehensions)
    b_nonzero = []
    for row in b:
        entries = []
        for j, y in enumerate(row):
            if y is one or y is not zero and y != zero:
                entries.append((j, y))
        b_nonzero.append(entries)
    out = []
    for row in a:
        acc = [zero] * cols
        for x, entries in zip(row, b_nonzero):
            if x is one:
                for j, y in entries:
                    sum_ = acc[j]
                    acc[j] = y if sum_ is zero else add(sum_, y)
            elif x is not zero and x != zero:
                for j, y in entries:
                    term = x if y is one else mul(x, y)
                    sum_ = acc[j]
                    acc[j] = term if sum_ is zero else add(sum_, term)
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


def kronecker(sr: Semiring, a: tuple, b: tuple) -> tuple:
    """Tensor of matrices, b being r x c: row (i,k) is row i*r+k, column (j,l) is column j*c+l."""
    mul, zero, one = sr.mul, sr.zero, sr.one

    def times(x, y):
        if x is zero or y is zero:
            return zero
        return y if x is one else x if y is one else mul(x, y)

    return tuple(tuple(times(x, y) for x in ra for y in rb) for ra in a for rb in b)
