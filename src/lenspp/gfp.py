"""Exact arithmetic over GF(p), p an odd prime, plus the small linear-algebra kernel.

Field elements are plain ints reduced into [0, p); matrices are tuples of
tuples of ints.  Everything is immutable and cheap to hash, which the orbit
and census layers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

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


def quadratic_residues(p: int) -> frozenset[int]:
    """The nonzero squares mod p by exhaustive scan (independent of the Euler route)."""
    require_odd_prime(p)
    return frozenset(t * t % p for t in range(1, p))


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest generator of GF(p)^x; p is tiny here so a direct scan is fine."""
    require_odd_prime(p)
    for g in range(2, p):
        x, seen = 1, set()
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise InvalidPrime(f"no primitive root mod {p}; not prime?")


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over GF(p); entries row-major (a11, a12, a21, a22)."""

    p: int
    entries: tuple[int, int, int, int]

    def __post_init__(self):
        require_odd_prime(self.p)
        if len(self.entries) != 4:
            raise ValueError("Mat2 needs exactly four entries")
        object.__setattr__(self, "entries", tuple(int(e) % self.p for e in self.entries))

    @classmethod
    def identity(cls, p: int) -> "Mat2":
        return cls(p, (1, 0, 0, 1))

    def det(self) -> int:
        a, b, c, d = self.entries
        return (a * d - b * c) % self.p

    def is_invertible(self) -> bool:
        return self.det() != 0

    def inverse(self) -> "Mat2":
        a, b, c, d = self.entries
        s = inv(self.det(), self.p)
        return Mat2(self.p, (d * s, -b * s, -c * s, a * s))

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.p != other.p:
            raise ValueError("matrix product across different moduli")
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return Mat2(self.p, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    def rows(self) -> list[list[int]]:
        a, b, c, d = self.entries
        return [[a, b], [c, d]]


def _require_enumerable(p: int) -> None:
    require_odd_prime(p)
    if p > GL2_PRIME_CAP:
        raise CapacityError(
            f"GL2 enumeration over GF({p}) has {(p*p-1)*(p*p-p)} elements; capped at p <= {GL2_PRIME_CAP}"
        )


@lru_cache(maxsize=None)
def gl2_tuples(p: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every invertible (a11, a12, a21, a22) over GF(p), row-major entry order."""
    _require_enumerable(p)
    return tuple(
        (a, b, c, d)
        for a in range(p)
        for b in range(p)
        for c in range(p)
        for d in range(p)
        if (a * d - b * c) % p
    )


@lru_cache(maxsize=None)
def gl2_pm_tuples(p: int) -> tuple[tuple[int, int, int, int], ...]:
    """The det = +-1 elements, same enumeration order as gl2_tuples."""
    return tuple(e for e in gl2_tuples(p) if (e[0] * e[3] - e[1] * e[2]) % p in (1, p - 1))


def gl2_elements(p: int) -> Iterator[Mat2]:
    """Yield each element of GL2(GF(p)) exactly once, row-major entry order."""
    for e in gl2_tuples(p):
        yield Mat2(p, e)


def gl2_pm_elements(p: int) -> Iterator[Mat2]:
    """Yield the det = +-1 subgroup in the same order."""
    for e in gl2_pm_tuples(p):
        yield Mat2(p, e)


def rref_with_pivots(
    rows: Iterable[Iterable[int]], p: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over GF(p).

    Returns (matrix, pivot_columns); the output shape matches the input
    (zero rows sink to the bottom), pivots are 1 with zeros elsewhere in
    their columns, so the row reduction is canonical for the row space.
    """
    require_odd_prime(p)
    m = [[int(x) % p for x in row] for row in rows]
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


def rref(rows: Iterable[Iterable[int]], p: int) -> tuple[tuple[int, ...], ...]:
    return rref_with_pivots(rows, p)[0]


def rank(rows: Iterable[Iterable[int]], p: int) -> int:
    return len(rref_with_pivots(rows, p)[1])


def span_key(rows: Iterable[Iterable[int]], p: int) -> tuple[tuple[int, ...], ...]:
    """Canonical key for the row space: the nonzero rows of the rref."""
    reduced, pivots = rref_with_pivots(rows, p)
    return reduced[: len(pivots)]


def pair_span_key(u: tuple[int, ...], v: tuple[int, ...], p: int) -> tuple[tuple[int, ...], ...]:
    """span_key([u, v], p) for two rows of ints in [0, p); unchecked."""
    m = len(u)
    i = next((k for k in range(m) if u[k] or v[k]), None)
    if i is None:
        return ()
    if not u[i]:
        u, v = v, u
    s = pow(u[i], p - 2, p)
    r1 = [x * s % p for x in u]
    f = v[i]
    r2 = [(y - f * x) % p for x, y in zip(r1, v)]
    j = next((k for k in range(i + 1, m) if r2[k]), None)
    if j is None:
        return (tuple(r1),)
    t = pow(r2[j], p - 2, p)
    r2 = [x * t % p for x in r2]
    g = r1[j]
    return (tuple((x - g * y) % p for x, y in zip(r1, r2)), tuple(r2))
