"""Mod-p total Pontrjagin classes of the quotients, and the lens-space analogue.

For rotation data (R, Q) the total class of the quotient is
prod_i (1 + (R[i]*a + Q[i]*b)^2) over all 2n columns, expanded and truncated
at polynomial degree 2n - 1 (cohomological degree 4n - 2); the graded pieces
live in degrees 4k and are compared modulo the ideal generated by the
k-invariant.  For a single lens space L(p; r_1..r_m) the same product with
one variable, prod_i (1 + r_i^2 a^2), is truncated by a^m = 0.

reduced_class is the one reduction of a column list's class used to decide:
the homeomorphism decider compares it and the census fingerprints it.
total_pontrjagin reduces on its own, so a check of a verdict built on it
does not run through the decider's reduction.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .actions import RotationData, _lens_rotations
from .forms import HomogeneousForm, k_invariant
from .gfp import require_odd_prime
from .quotient_ring import CohomRingModel, TotalClass, ring_model


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


def reduced_class(
    model: CohomRingModel, pairs: Iterable[tuple[int, int]], top: int
) -> tuple[tuple[int, ...], ...]:
    """Coefficient tuples of e_1 .. e_top of the columns pairs, each reduced
    by the ring model: the class the homeomorphism decider compares and the
    census fingerprints.  Unchecked."""
    return tuple(model.reduce_coeffs(c) for c in pontrjagin_coeffs(model.p, pairs, top))


def total_pontrjagin_raw(data: RotationData) -> dict[int, HomogeneousForm]:
    """Unreduced graded components {cohomological degree 4k: form}, truncated."""
    p = data.p
    comps = pontrjagin_coeffs(p, data.rotation_pairs(), data.n - 1)
    return {4 * k: HomogeneousForm(p, coeffs) for k, coeffs in enumerate(comps, 1)}


def total_pontrjagin(data: RotationData) -> TotalClass:
    """Total Pontrjagin class of validated free rotation data, reduced in the
    cohomology ring its k-invariant cuts out.  Requires p > n."""
    p, n = data.p, data.n
    model = ring_model(p, n, k_invariant(data).coeff_pair())
    comps = pontrjagin_coeffs(p, data.rotation_pairs(), n - 1)
    return TotalClass(
        p,
        2 * n - 1,
        tuple((4 * k, HomogeneousForm(p, model.reduce_coeffs(c))) for k, c in enumerate(comps, 1)),
    )


def lens_total_pontrjagin(p: int, rotations: Sequence[int]) -> TotalClass:
    """Total class of the lens space with the given rotation numbers,
    computed in GF(p)[a]/(a^m), m = len(rotations); single-variable forms
    are returned as binary forms with all b-coefficients zero."""
    require_odd_prime(p)
    rotations = _lens_rotations(p, rotations)
    truncation = max(len(rotations) - 1, 0)
    comps = pontrjagin_coeffs(p, [(r, 0) for r in rotations], truncation // 2)
    return TotalClass(
        p,
        truncation,
        tuple((4 * k, HomogeneousForm(p, coeffs)) for k, coeffs in enumerate(comps, 1)),
    )
