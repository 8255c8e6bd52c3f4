"""Truncated even cohomology of a quotient: GF(p)[a, b] modulo the ideal
generated by the two k-invariant components.

Generators a, b sit in cohomological degree 2, so polynomial degree d means
cohomological degree 2d and the ring is truncated at polynomial degree
2n - 1 (the space has dimension 4n - 2).  For each polynomial degree the
ideal's degree slice is the row space of {m * f, m * g : m a monomial},
computed on first use and stored in reduced row echelon form; killing the
pivot coordinates of a coefficient vector is then a canonical, linear,
idempotent reduction, and it depends only on the span of {f, g}, not on
the basis chosen.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .errors import DegenerateIdeal
from .forms import HomogeneousForm
from .gfp import rref_with_pivots


class CohomRingModel:
    """Immutable-by-convention model of the even truncated cohomology ring.

    Each degree slice of the ideal is computed on the first reduction at
    that degree and kept.
    """

    def __init__(self, p: int, n: int, f: HomogeneousForm, g: HomogeneousForm):
        if f.p != p or g.p != p:
            raise ValueError("ideal generators must live over GF(p)")
        if f.deg != n or g.deg != n:
            raise ValueError("ideal generators must be forms of degree n")
        if f.is_zero() or g.is_zero():
            raise DegenerateIdeal("zero ideal generator; k-invariant components must be nonzero")
        self.p = p
        self.f = f
        self.g = g
        self._bases: dict[int, tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = {}

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
        reduced, pivots = rref_with_pivots(rows, self.p) if rows else ((), ())
        entry = (reduced[: len(pivots)], pivots)
        self._bases[d] = entry
        return entry

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


# one model per k-coefficient pair: the census shares one per canonical form
# (its workloads reach 4 and 10), and verify_application(11) compares against
# 100 distinct spaces
@lru_cache(maxsize=1024)
def ring_model(p: int, n: int, pair: tuple) -> CohomRingModel:
    """Model for a k-coefficient pair (f, g) of validated spaces."""
    return CohomRingModel(p, n, HomogeneousForm(p, pair[0]), HomogeneousForm(p, pair[1]))


class TotalClass(Record):
    """Graded even-degree characteristic class, truncated.

    components maps cohomological degree 4k (as (degree, form) pairs sorted
    by degree) to a form of polynomial degree 2k; truncation is the highest
    polynomial degree kept, and a component above it is refused at
    construction time.  Zero components may be omitted; component() fills
    them back in.
    """

    __slots__ = ("p", "truncation", "components")

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

    def to_json(self) -> dict:
        return {
            "truncation": self.truncation,
            "components": {str(d): form.to_json() for d, form in self.components},
        }
