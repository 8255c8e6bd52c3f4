"""Truncated even cohomology of a quotient: GF(p)[a, b] modulo the ideal
generated by the two k-invariant components.

Generators a, b sit in cohomological degree 2, so polynomial degree d means
cohomological degree 2d and the ring is truncated at polynomial degree
2n - 1 (the space has dimension 4n - 2).  For each polynomial degree the
ideal's degree slice is the row space of {m * f, m * g : m a monomial},
stored in reduced row echelon form; killing the pivot coordinates of a
coefficient vector is then a canonical, linear, idempotent reduction, and
it depends only on the span of {f, g}, not on the basis chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DegenerateIdeal
from .forms import HomogeneousForm
from .gfp import rref_with_pivots, span_key


class CohomRingModel:
    """Immutable-by-convention model of the even truncated cohomology ring.

    Degree slices of the ideal are precomputed through polynomial degree
    2n - 1 and extended lazily (and idempotently) if a membership query at
    a higher degree comes in.
    """

    def __init__(self, p: int, n: int, f: HomogeneousForm, g: HomogeneousForm):
        if f.p != p or g.p != p:
            raise ValueError("ideal generators must live over GF(p)")
        if f.deg != n or g.deg != n:
            raise ValueError("ideal generators must be forms of degree n")
        if f.is_zero() or g.is_zero():
            raise DegenerateIdeal("zero ideal generator; k-invariant components must be nonzero")
        self.p = p
        self.n = n
        self.f = f
        self.g = g
        self.truncation = 2 * n - 1  # max polynomial degree kept in the model
        self._bases: dict[int, tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = {}
        for d in range(self.truncation + 1):
            self._basis(d)

    def _basis(self, d: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        got = self._bases.get(d)
        if got is not None:
            return got
        rows = []
        for gen in (self.f, self.g):
            shift = d - gen.deg
            if shift < 0:
                continue
            # monomial a^(shift-t) b^t times gen: coefficients slide t slots right
            for t in range(shift + 1):
                row = [0] * (d + 1)
                for k, c in enumerate(gen.coeffs):
                    row[k + t] = c
                rows.append(row)
        basis = rref_with_pivots(rows, self.p) if rows else ((), ())
        reduced, pivots = basis
        entry = (reduced[: len(pivots)], pivots)
        self._bases[d] = entry
        return entry

    def ideal_basis(self, d: int) -> tuple[tuple[int, ...], ...]:
        """Rref basis of the ideal's degree-d slice (empty below degree n)."""
        return self._basis(d)[0]

    def reduce(self, form: HomogeneousForm) -> HomogeneousForm:
        """Canonical coset representative: kill every pivot coordinate."""
        if form.p != self.p:
            raise ValueError("form modulus differs from the model's")
        return HomogeneousForm(self.p, self.reduce_coeffs(form.coeffs))

    def reduce_coeffs(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        """reduce() on a bare coefficient tuple (length = degree + 1); unchecked.

        Rref rows vanish on each other's pivots, so every row is subtracted
        with the input's own coefficient at its pivot."""
        p = self.p
        basis, pivots = self._basis(len(coeffs) - 1)
        out = list(coeffs)
        for row, piv in zip(basis, pivots):
            c = coeffs[piv] % p
            if c:
                for k, y in enumerate(row):
                    if y:
                        out[k] -= c * y
        return tuple(x % p for x in out)

    def in_ideal(self, form: HomogeneousForm) -> bool:
        return self.reduce(form).is_zero()

    def same_ideal(self, other: "CohomRingModel") -> bool:
        if (self.p, self.n) != (other.p, other.n):
            return False
        return span_key([self.f.coeffs, self.g.coeffs], self.p) == span_key(
            [other.f.coeffs, other.g.coeffs], other.p
        )

    def equal_in_quotient(self, u, v) -> bool:
        """Equality mod the ideal, for forms or whole TotalClass objects."""
        if isinstance(u, TotalClass) or isinstance(v, TotalClass):
            if not (isinstance(u, TotalClass) and isinstance(v, TotalClass)):
                raise ValueError("cannot compare a total class with a bare form")
            if u.p != v.p or u.truncation != v.truncation:
                raise ValueError("total classes with mismatched truncation parameters")
            if u.p != self.p:
                raise ValueError("total class modulus differs from the model's")
            degrees = {deg for deg, _ in u.components} | {deg for deg, _ in v.components}
            return all(
                self.reduce(u.component(d) - v.component(d)).is_zero() for d in degrees
            )
        return self.reduce(u - v).is_zero()


def build_model(k, p: int, n: int) -> CohomRingModel:
    """Model of the truncated even cohomology ring from a k-invariant."""
    return CohomRingModel(p, n, k.first, k.second)


# one model per k-coefficient pair: the census shares one per canonical form
# (its workloads reach 4 and 10), and verify_application(11) compares against
# 100 distinct spaces
@lru_cache(maxsize=1024)
def ring_model(p: int, n: int, pair: tuple) -> CohomRingModel:
    """Model for a k-coefficient pair (f, g) of validated spaces."""
    return CohomRingModel(p, n, HomogeneousForm(p, pair[0]), HomogeneousForm(p, pair[1]))


@dataclass(frozen=True)
class TotalClass:
    """Graded even-degree characteristic class, truncated.

    components maps cohomological degree 4k (as (degree, form) pairs sorted
    by degree) to a form of polynomial degree 2k; degrees above 2*truncation
    (cohomological) are discarded at construction time.  Zero components may
    be omitted; component() fills them back in.
    """

    p: int
    truncation: int  # max polynomial degree kept
    components: tuple[tuple[int, HomogeneousForm], ...]

    def __post_init__(self):
        comps = []
        for deg, form in sorted(self.components):
            if deg % 4 or deg <= 0:
                raise ValueError("Pontrjagin components live in degrees 4k > 0")
            if form.deg * 2 != deg:
                raise ValueError("component polynomial degree inconsistent with its label")
            if form.deg > self.truncation:
                raise ValueError("component above the truncation degree")
            comps.append((deg, form))
        object.__setattr__(self, "components", tuple(comps))

    def component(self, degree: int) -> HomogeneousForm:
        for d, form in self.components:
            if d == degree:
                return form
        return HomogeneousForm(self.p, (0,) * (degree // 2 + 1))

    def is_trivial(self) -> bool:
        return all(form.is_zero() for _, form in self.components)

    def key(self) -> tuple:
        """Hashable canonical key (zero components dropped)."""
        return tuple((d, form.coeffs) for d, form in self.components if not form.is_zero())

    def to_json(self) -> dict:
        return {
            "truncation": self.truncation,
            "components": {str(d): form.to_json() for d, form in self.components},
        }
