"""Homogeneous binary forms over GF(p) in two degree-2 generators a, b,
products of linear forms, GL2 substitutions, and the k-invariant.

A form of degree d is stored as the dense coefficient tuple
(c_0, ..., c_d) with c_k the coefficient of a^(d-k) * b^k.  The
k-invariant of rotation data is the pair of degree-n forms obtained by
multiplying the linear forms R[i]*a + Q[i]*b over each block of columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .actions import RotationData
from .errors import HypothesisViolation
from .gfp import Mat2, require_odd_prime


@dataclass(frozen=True)
class HomogeneousForm:
    """Dense homogeneous form; coeffs[k] multiplies a^(deg-k) * b^k."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        require_odd_prime(self.p)
        if len(self.coeffs) == 0:
            raise ValueError("a form needs at least the degree-0 coefficient")
        object.__setattr__(self, "coeffs", tuple(int(c) % self.p for c in self.coeffs))

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

    def __sub__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        self._check_mate(other)
        if self.deg != other.deg:
            raise ValueError("difference of forms of different degrees is not homogeneous")
        return HomogeneousForm(self.p, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

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


def form_from_json(p: int, obj: dict) -> HomogeneousForm:
    f = HomogeneousForm(p, tuple(obj["coeffs"]))
    if f.deg != obj.get("deg", f.deg):
        raise ValueError("deg field inconsistent with coefficient count")
    return f


def one(p: int) -> HomogeneousForm:
    return HomogeneousForm(p, (1,))


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
    return HomogeneousForm(p, linear_product(p, ((int(r) % p, int(q) % p) for r, q in pairs)))


# keys (p, pair, k): all p^2 pairs times the degrees substituted, e.g. 504
# at p = 13, n = 2; 2^14 holds every pair at p = 31 through degree 14
@lru_cache(maxsize=2**14)
def _pair_power(p: int, pair: tuple[int, int], k: int) -> tuple[int, ...]:
    out = (1,)
    for _ in range(k):
        out = _conv(out, pair, p)
    return out


@lru_cache(maxsize=None)
def substitution_matrix(p: int, deg: int, entries: tuple[int, int, int, int]) -> tuple[tuple[int, ...], ...]:
    """Matrix of the substitution a -> e11*a + e12*b, b -> e21*a + e22*b on
    degree-`deg` coefficient vectors; column k is the image of a^(deg-k)b^k."""
    e11, e12, e21, e22 = (e % p for e in entries)
    cols = [
        _conv(_pair_power(p, (e11, e12), deg - k), _pair_power(p, (e21, e22), k), p)
        for k in range(deg + 1)
    ]
    return tuple(tuple(cols[k][r] for k in range(deg + 1)) for r in range(deg + 1))


def apply_matrix(M: Sequence[Sequence[int]], vec: Sequence[int], p: int) -> tuple[int, ...]:
    return tuple(sum(row[k] * vec[k] for k in range(len(vec))) % p for row in M)


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


@dataclass(frozen=True)
class KInvariant:
    """The pair of degree-n forms classifying the quotient's Postnikov data mod p."""

    first: HomogeneousForm
    second: HomogeneousForm

    @property
    def p(self) -> int:
        return self.first.p

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
