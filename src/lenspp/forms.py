"""Homogeneous binary forms over GF(p) in two degree-2 generators a, b,
products of linear forms, GL2 substitutions, and the k-invariant.

A form of degree d is stored as the dense coefficient tuple
(c_0, ..., c_d) with c_k the coefficient of a^(d-k) * b^k.  The
k-invariant of rotation data is the pair of degree-n forms obtained by
multiplying the linear forms R[i]*a + Q[i]*b over each block of columns.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from ._record import Record
from .actions import RotationData
from .errors import HypothesisViolation
from .gfp import Mat2, reduce_ints, require_odd_prime


class HomogeneousForm(Record):
    """Dense homogeneous form; coeffs[k] multiplies a^(deg-k) * b^k."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: tuple[int, ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        require_odd_prime(self.p)
        if len(self.coeffs) == 0:
            raise ValueError("a form needs at least the degree-0 coefficient")
        object.__setattr__(self, "coeffs", reduce_ints(self.coeffs, self.p))

    @property
    def deg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check_mate(self, other: "HomogeneousForm") -> None:
        if self.p != other.p:
            raise ValueError("forms over different moduli")

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        self._check_mate(other)
        if self.deg != other.deg:
            raise ValueError("sum of forms of different degrees is not homogeneous")
        return HomogeneousForm(self.p, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        self._check_mate(other)
        return HomogeneousForm(self.p, _conv(self.coeffs, other.coeffs, self.p))

    def scale(self, c: int) -> "HomogeneousForm":
        return HomogeneousForm(self.p, tuple(c * x for x in self.coeffs))

    def render(self) -> str:
        """Human form, e.g. '2a^2+3ab+b^2 (mod 7)'."""
        d = self.deg
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = _monomial(d - k, k)
            if mono and c == 1:
                terms.append(mono)
            else:
                terms.append(f"{c}{mono}")
        body = "+".join(terms) if terms else "0"
        return f"{body} (mod {self.p})"

    def to_json(self) -> dict:
        return {"deg": self.deg, "coeffs": list(self.coeffs)}


def _monomial(i: int, j: int) -> str:
    out = ""
    if i:
        out += "a" if i == 1 else f"a^{i}"
    if j:
        out += "b" if j == 1 else f"b^{j}"
    return out


def _conv(f: Sequence[int], g: Sequence[int], p: int) -> tuple[int, ...]:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def linear_product(p: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Coefficients of prod_i (r_i * a + q_i * b) over plain ints; unchecked."""
    out = (1,)
    for pair in pairs:
        out = _conv(out, pair, p)
    return out


def k_pair(p: int, n: int, R: Sequence[int], Q: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coefficient tuples of the two block products; unchecked."""
    return linear_product(p, zip(R[:n], Q[:n])), linear_product(p, zip(R[n:], Q[n:]))


def product_of_linear_forms(p: int, pairs: Iterable[tuple[int, int]]) -> HomogeneousForm:
    """The form prod_i (r_i * a + q_i * b); the empty product is 1."""
    require_odd_prime(p)
    return HomogeneousForm(p, linear_product(p, (reduce_ints((r, q), p) for r, q in pairs)))


@lru_cache(maxsize=2**18)
def substitution_matrix(p: int, deg: int, entries: tuple[int, int, int, int]) -> tuple[tuple[int, ...], ...]:
    """Matrix of the substitution a -> e11*a + e12*b, b -> e21*a + e22*b on
    degree-`deg` coefficient vectors; column k is the image of a^(deg-k)b^k,
    a product of powers of the images of a and b, built up on each miss."""
    e11, e12, e21, e22 = (e % p for e in entries)
    pow_a, pow_b = [(1,)], [(1,)]
    for _ in range(deg):
        pow_a.append(_conv(pow_a[-1], (e11, e12), p))
        pow_b.append(_conv(pow_b[-1], (e21, e22), p))
    cols = [_conv(pow_a[deg - k], pow_b[k], p) for k in range(deg + 1)]
    return tuple(tuple(cols[k][r] for k in range(deg + 1)) for r in range(deg + 1))


def substitute_columns(p: int, A: tuple[int, int, int, int], pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The columns (r, q) relabelled so that each linear form r*a + q*b
    becomes its substitution by A = (e11, e12, e21, e22): the columns
    (r*e11 + q*e21, r*e12 + q*e22), [R; Q] multiplied by A transposed.  A
    product over the columns, such as a k-invariant or a Pontrjagin class,
    is then substituted by A with no substitution matrix.  Unchecked."""
    e11, e12, e21, e22 = A
    return [((r * e11 + q * e21) % p, (r * e12 + q * e22) % p) for r, q in pairs]


def apply_matrix(M: Sequence[Sequence[int]], vec: Sequence[int], p: int) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, vec)) % p for row in M)


def substitute(form: HomogeneousForm, A: Mat2) -> HomogeneousForm:
    """Apply the linear change of generators a -> A11*a + A12*b, b -> A21*a + A22*b.

    Rows of A are the images of a and b, so composition satisfies
    substitute(substitute(f, A), A2) == substitute(f, A * A2).
    Only invertible substitutions are accepted.
    """
    if A.p != form.p:
        raise ValueError("substitution matrix modulus differs from the form's")
    if not A.is_invertible():
        raise ValueError("substitution matrix must be invertible")
    M = substitution_matrix(form.p, form.deg, A.entries)
    return HomogeneousForm(form.p, apply_matrix(M, form.coeffs, form.p))


class KInvariant(Record):
    """The pair of degree-n forms classifying the quotient's Postnikov data mod p."""

    __slots__ = ("first", "second")

    def __init__(self, first: HomogeneousForm, second: HomogeneousForm):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def coeff_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.first.coeffs, self.second.coeffs)

    def to_json(self) -> dict:
        return {"first": self.first.to_json(), "second": self.second.to_json()}


def k_invariant(data: RotationData) -> KInvariant:
    """k-invariant of validated free rotation data: the block products of the
    linear forms R[i]*a + Q[i]*b.  Requires p > n."""
    if data.p <= data.n:
        raise HypothesisViolation(
            f"k-invariant formula needs p > n, got p = {data.p}, n = {data.n}"
        )
    first, second = k_pair(data.p, data.n, data.R, data.Q)
    return KInvariant(HomogeneousForm(data.p, first), HomogeneousForm(data.p, second))
