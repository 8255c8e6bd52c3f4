"""Mod-p total Pontrjagin classes of the quotients, and the lens-space analogue.

For rotation data (R, Q) the total class of the quotient is
prod_i (1 + (R[i]*a + Q[i]*b)^2) over all 2n columns, expanded and truncated
at polynomial degree 2n - 1 (cohomological degree 4n - 2); the graded pieces
live in degrees 4k and are compared modulo the ideal generated by the
k-invariant.  For a single lens space L(p; r_1..r_m) the same product with
one variable, prod_i (1 + r_i^2 a^2), is truncated by a^m = 0.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .actions import RotationData
from .errors import InvalidRotation
from .forms import HomogeneousForm, k_invariant
from .gfp import require_odd_prime, span_key
from .quotient_ring import CohomRingModel, TotalClass


def pontrjagin_coeffs(p: int, pairs: Iterable[tuple[int, int]], top: int) -> list[tuple[int, ...]]:
    """Coefficient tuples of e_1 .. e_top, the elementary symmetric polynomials
    of the squares (r*a + q*b)^2; e_k has polynomial degree 2k.  Unchecked."""
    e = [[1]] + [[0] * (2 * k + 1) for k in range(1, top + 1)]
    for seen, (r, q) in enumerate(pairs):
        s0, s1, s2 = r * r, 2 * r * q, q * q
        # descending k, so e[k - 1] still lacks this square
        for k in range(min(top, seen + 1), 0, -1):
            cur = e[k]
            for t, c in enumerate(e[k - 1]):
                if c:
                    cur[t] += c * s0
                    cur[t + 1] += c * s1
                    cur[t + 2] += c * s2
    return [tuple(c % p for c in coeffs) for coeffs in e[1:]]


def total_pontrjagin_raw(data: RotationData) -> dict[int, HomogeneousForm]:
    """Unreduced graded components {cohomological degree 4k: form}, truncated."""
    p = data.p
    comps = pontrjagin_coeffs(p, data.rotation_pairs(), data.n - 1)
    return {4 * k: HomogeneousForm(p, coeffs) for k, coeffs in enumerate(comps, 1)}


def total_pontrjagin(data: RotationData, model: CohomRingModel) -> TotalClass:
    """Total Pontrjagin class reduced in the quotient's cohomology model.

    The model must belong to the same space: same (p, n) and the same ideal
    as the one generated by data's k-invariant.
    """
    if (model.p, model.n) != (data.p, data.n):
        raise ValueError("model (p, n) differs from the data's")
    k = k_invariant(data)
    if span_key([k.first.coeffs, k.second.coeffs], data.p) != span_key(
        [model.f.coeffs, model.g.coeffs], data.p
    ):
        raise ValueError("model ideal differs from the ideal of data's k-invariant")
    comps = tuple(
        (deg, model.reduce(form)) for deg, form in sorted(total_pontrjagin_raw(data).items())
    )
    return TotalClass(data.p, 2 * data.n - 1, comps)


def lens_total_pontrjagin(p: int, rotations: Sequence[int]) -> TotalClass:
    """Total class of the lens space with the given rotation numbers,
    computed in GF(p)[a]/(a^m), m = len(rotations); single-variable forms
    are returned as binary forms with all b-coefficients zero."""
    require_odd_prime(p)
    rotations = tuple(int(x) % p for x in rotations)
    if any(x == 0 for x in rotations):
        raise InvalidRotation("lens-space rotation numbers must be nonzero mod p")
    truncation = max(len(rotations) - 1, 0)
    comps = pontrjagin_coeffs(p, [(r, 0) for r in rotations], truncation // 2)
    return TotalClass(
        p,
        truncation,
        tuple((4 * k, HomogeneousForm(p, coeffs)) for k, coeffs in enumerate(comps, 1)),
    )
