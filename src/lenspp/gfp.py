"""Exact arithmetic over GF(p), p an odd prime, plus the small linear-algebra kernel.

Field elements are plain ints reduced into [0, p); matrices are tuples of
tuples of ints.  Everything is immutable and cheap to hash, which the orbit
and census layers rely on.

The kernel has two row-space tools: rref_with_pivots, general elimination,
for the slices of the cohomology ideal; and the wedge, for planes spanned
by two rows, whose 2x2 minors (wedge) key the plane and whose reduced rows
are read off those minors with no elimination (wedge_span_key).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import index
from typing import Iterable

from ._record import Record
from .errors import CapacityError, InvalidPrime

# An exhaustive GL2 scan has (p^2-1)(p^2-p) elements; cap p so scans stay desk-sized.
GL2_PRIME_CAP = 31


# Miller-Rabin with the first thirteen prime bases is exact below this bound
# (psi_13 of Sorenson and Webster); primality above it is refused, not guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981


def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises CapacityError for odd p at or above
    MR_EXACT_BOUND, where the fixed bases no longer decide."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    if p in _MR_BASES:
        return True
    if any(p % b == 0 for b in _MR_BASES):
        return False
    if p >= MR_EXACT_BOUND:
        raise CapacityError(
            f"primality of {p} is decided exactly only below {MR_EXACT_BOUND}"
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> int:
    if not is_odd_prime(p):
        raise InvalidPrime(f"modulus must be an odd prime, got {p!r}")
    return p


def reduce_ints(values: Iterable[int], p: int, error: type[ValueError] = ValueError) -> tuple[int, ...]:
    """values reduced mod p; a float or a string, which int() would truncate
    into another value, is refused with error (operator.index)."""
    try:
        return tuple(index(x) % p for x in values)
    except TypeError as exc:
        raise error(f"entries must be integers: {exc}") from None


def inv(x: int, p: int) -> int:
    """Multiplicative inverse in GF(p); zero has none."""
    x %= p
    if x == 0:
        raise ZeroDivisionError("zero is not invertible in GF(p)")
    return pow(x, p - 2, p)


def is_quadratic_residue(x: int, p: int) -> bool:
    """Euler criterion: nonzero x is a square mod p iff x^((p-1)/2) = 1."""
    require_odd_prime(p)
    x %= p
    if x == 0:
        raise ValueError("quadratic-residue test needs a nonzero element")
    return pow(x, (p - 1) // 2, p) == 1


def mat2_mul(a: tuple, b: tuple, p: int) -> tuple[int, int, int, int]:
    """Product of two row-major 2x2 entry tuples over GF(p); unchecked."""
    return (
        (a[0] * b[0] + a[1] * b[2]) % p,
        (a[0] * b[1] + a[1] * b[3]) % p,
        (a[2] * b[0] + a[3] * b[2]) % p,
        (a[2] * b[1] + a[3] * b[3]) % p,
    )


def mat2_inv(a: tuple, p: int) -> tuple[int, int, int, int]:
    """Inverse of a row-major 2x2 entry tuple over GF(p); a singular one has none."""
    s = inv(a[0] * a[3] - a[1] * a[2], p)
    return (a[3] * s % p, -a[1] * s % p, -a[2] * s % p, a[0] * s % p)


class Mat2(Record):
    """2x2 matrix over GF(p); entries row-major (a11, a12, a21, a22)."""

    __slots__ = ("p", "entries")

    def __post_init__(self):
        require_odd_prime(self.p)
        if len(self.entries) != 4:
            raise ValueError("Mat2 needs exactly four entries")
        object.__setattr__(self, "entries", reduce_ints(self.entries, self.p))

    @classmethod
    def identity(cls, p: int) -> "Mat2":
        return cls(p, (1, 0, 0, 1))

    def det(self) -> int:
        a, b, c, d = self.entries
        return (a * d - b * c) % self.p

    def is_invertible(self) -> bool:
        return self.det() != 0

    def inverse(self) -> "Mat2":
        return Mat2(self.p, mat2_inv(self.entries, self.p))

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.p != other.p:
            raise ValueError("matrix product across different moduli")
        return Mat2(self.p, mat2_mul(self.entries, other.entries, self.p))

    def rows(self) -> list[list[int]]:
        a, b, c, d = self.entries
        return [[a, b], [c, d]]


def rref_with_pivots(
    rows: Iterable[Iterable[int]], p: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over GF(p).

    Returns (matrix, pivot_columns); the output shape matches the input
    (zero rows sink to the bottom), pivots are 1 with zeros elsewhere in
    their columns, so the row reduction is canonical for the row space.
    An entry that is not an integer is refused with ValueError (reduce_ints).
    """
    require_odd_prime(p)
    m = [list(reduce_ints(row, p)) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        s = inv(m[r][c], p)
        m[r] = [x * s % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m), tuple(pivots)


@lru_cache(maxsize=16)
def wedge_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """The index pairs (i, j), i < j < m, in lex order: the coordinate order
    of a wedge u^v of two vectors of length m."""
    return tuple(itertools.combinations(range(m), 2))


def wedge(u: tuple[int, ...], v: tuple[int, ...], p: int) -> tuple[int, ...]:
    """u^v: the 2x2 minors u[i]*v[j] - u[j]*v[i] mod p over wedge_pairs,
    the Pluecker coordinates of span(u, v).  Unchecked.

    The wedge is zero exactly when u and v are dependent, and another basis
    of the same plane multiplies it by the determinant of the change."""
    return tuple([(u[i] * v[j] - u[j] * v[i]) % p for i, j in wedge_pairs(len(u))])


@lru_cache(maxsize=16)
def _wedge_columns(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each column c, the (index, sign) over k that read the skew
    extension w_kc off a wedge w: w_kc = sign * w[index], with w_ji = -w_ij
    and w_cc = 0 (sign 0)."""
    index = {ij: k for k, ij in enumerate(wedge_pairs(m))}
    return tuple(
        tuple(
            (index[k, c], 1) if k < c else (index[c, k], -1) if k > c else (0, 0)
            for k in range(m)
        )
        for c in range(m)
    )


def wedge_span_key(w: tuple[int, ...], m: int, p: int) -> tuple[tuple[int, ...], ...]:
    """The two nonzero rref rows of span(u, v), for any pair of vectors of
    length m with w = wedge(u, v, p) != 0, read off the minors with no
    elimination.

    With w_ji = -w_ij and w_kk = 0, the first pair (a, b) in wedge_pairs
    order with w_ab != 0 holds the two pivots, and the reduced rows are
    r1[k] = w_kb / w_ab and r2[k] = w_ak / w_ab: the rows of the plane
    vanishing at b and at a, scaled to 1 at a and at b."""
    first = next((k for k, x in enumerate(w) if x), None)
    if first is None:
        raise ValueError("a zero wedge spans no plane")
    a, b = wedge_pairs(m)[first]
    s = pow(w[first], p - 2, p)
    columns = _wedge_columns(m)
    return (
        tuple([sign * w[k] * s % p for k, sign in columns[b]]),
        tuple([-sign * w[k] * s % p for k, sign in columns[a]]),
    )


@lru_cache(maxsize=2**10)
def plane_column(p: int, x: int, y: int) -> tuple[int, ...]:
    """a*x + b*y mod p over the p^2 pairs (a, b) in lex order: one
    coordinate of the p^2 combinations a*u + b*v of every pair of vectors
    (u, v) holding x and y there.  Zipping one column per coordinate lists
    the combinations, so the vectors of a plane and the members of a
    B-orbit are built from columns shared across all planes and orbits of
    one p; the bound holds every column of one p up to GL2_PRIME_CAP, about
    7 MB at p = 31."""
    return tuple([(a * x + b * y) % p for a in range(p) for b in range(p)])
