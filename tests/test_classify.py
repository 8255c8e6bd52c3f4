import itertools
import json
import math
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import free_space_strategy, gl2_elements, span_key
from lenspp.actions import RotationData, product_of_lens_spaces, validate
from lenspp import census, classify
from lenspp.classify import (
    LEVEL_HOMEO,
    LEVEL_HOMOTOPY,
    LEVEL_SIMPLE,
    EquivalenceWitness,
    Verdict,
    _matching_substitutions,
    canonical_form,
    homeomorphic,
    homotopy_equivalent,
    lens_homotopy_equivalent,
    lens_simple_homotopy_equivalent,
    matching_substitutions,
    simple_homotopy_equivalent,
)
from lenspp.errors import (
    CapacityError,
    HypothesisViolation,
    InvalidDimension,
    InvalidPrime,
    InvalidRotation,
)
from lenspp.forms import (
    HomogeneousForm,
    apply_matrix,
    k_invariant,
    k_pair,
    substitute,
    substitution_matrix,
)
from lenspp.census import enumerate_free
from lenspp.gfp import (
    Mat2,
    inv,
    is_quadratic_residue,
    mat2_inv,
    mat2_mul,
    wedge,
)
from lenspp.pontrjagin import lens_total_pontrjagin, total_pontrjagin, total_pontrjagin_raw
from lenspp.quotient_ring import ring_model


def lens(p, r1, r2):
    return product_of_lens_spaces(p, (1, r1), (1, r2))


def test_reflexive_with_identity_witness():
    d = lens(5, 1, 1)
    v = homotopy_equivalent(d, d)
    assert v.equivalent
    assert v.witness.A == Mat2.identity(5)
    assert v.witness.B == Mat2.identity(5)


def test_qr_equivalent_pair():
    # +-(1*1)/(1*4) = +-4; 4 = 2^2 is a QR mod 5
    v = homotopy_equivalent(lens(5, 1, 1), lens(5, 1, 4))
    assert v.equivalent


def test_qr_inequivalent_pair():
    # +-1/2 = {3, 2} mod 5; QRs mod 5 are {1, 4}
    v = homotopy_equivalent(lens(5, 1, 1), lens(5, 1, 2))
    assert not v.equivalent
    assert v.witness is None
    assert v.checked_pairs > 0


def test_witness_transforms_source_k_to_target_k():
    X, Y = lens(5, 1, 1), lens(5, 1, 4)
    v = homotopy_equivalent(X, Y)
    kx, ky = k_invariant(X), k_invariant(Y)
    assert v.witness.verify(kx, ky)
    A, B = v.witness.A, v.witness.B
    sx = (substitute(kx.first, A), substitute(kx.second, A))
    b11, b12, b21, b22 = B.entries
    mixed_first = sx[0].scale(b11) + sx[1].scale(b12)
    mixed_second = sx[0].scale(b21) + sx[1].scale(b22)
    assert (mixed_first, mixed_second) == (ky.first, ky.second)


def test_symmetry_of_verdicts():
    pairs = [
        (lens(5, 1, 1), lens(5, 1, 4)),
        (lens(5, 1, 1), lens(5, 1, 2)),
        (lens(7, 1, 1), lens(7, 2, 2)),
    ]
    for X, Y in pairs:
        assert homotopy_equivalent(X, Y).equivalent == homotopy_equivalent(Y, X).equivalent


def test_simple_equals_homotopy_levels():
    X, Y = lens(7, 1, 1), lens(7, 2, 2)
    vh = homotopy_equivalent(X, Y)
    vs = simple_homotopy_equivalent(X, Y)
    assert vh.equivalent and vs.equivalent
    assert vs.level == "simple_homotopy"
    assert vh.level == "homotopy"


def test_homeomorphic_is_at_least_as_strong():
    X, Y = lens(5, 1, 1), lens(5, 1, 4)
    assert homeomorphic(X, Y).equivalent
    assert homeomorphic(X, Y).level == "homeomorphism"
    X2, Y2 = lens(5, 1, 1), lens(5, 1, 2)
    assert not homeomorphic(X2, Y2).equivalent


def test_different_p_or_n_not_equivalent():
    X = lens(5, 1, 1)
    Y = lens(7, 1, 1)
    v = homotopy_equivalent(X, Y)
    assert not v.equivalent
    assert v.checked_pairs == 0


@pytest.mark.parametrize(
    "decide", [homotopy_equivalent, simple_homotopy_equivalent, homeomorphic, matching_substitutions]
)
def test_invalid_input_is_refused_before_comparing_p_and_n(decide):
    """A non-free space or one outside the hypotheses is refused against a
    partner of another (p, n) exactly as against one of its own (p, n),
    in either position, not answered with a negative."""
    not_free = validate(RotationData(5, 2, (1, 0, 0, 0), (0, 0, 1, 0)))
    at_p3 = product_of_lens_spaces(3, (1, 1), (1, 1))
    for bad, error in [(not_free, InvalidRotation), (at_p3, HypothesisViolation)]:
        for partner in (lens(7, 1, 2), lens(5, 1, 2)):
            for pair in ((bad, partner), (partner, bad)):
                with pytest.raises(error):
                    decide(*pair)


def test_homeomorphic_checks_freeness_four_times_per_same_setting_decision(monkeypatch):
    """Two checks in homeomorphic and two in the shared decider for one
    (p, n); a pair of different (p, n) stops after homeomorphic's two."""
    calls = []
    real = classify.is_free

    def counting(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(classify, "is_free", counting)
    X, Y = lens(5, 1, 1), lens(5, 1, 4)
    assert homeomorphic(X, Y).equivalent
    assert len(calls) == 4
    calls.clear()
    assert homeomorphic(X, lens(7, 1, 1)).checked_pairs == 0
    assert len(calls) == 2


def test_homeomorphic_computes_each_k_pair_once(monkeypatch):
    """The class check builds Y's ring model on the k-pair the shared
    decider computed, so one decision that runs the class check computes
    two k-pairs, one per space."""
    calls, checks = [], []
    real_k_pair, real_ring_model = classify.k_pair, classify.ring_model
    monkeypatch.setattr(classify, "k_pair", lambda *args: calls.append(args) or real_k_pair(*args))
    monkeypatch.setattr(
        classify, "ring_model", lambda *args: checks.append(args) or real_ring_model(*args)
    )
    X, Y = lens(5, 1, 1), lens(5, 1, 4)
    assert homeomorphic(X, Y).equivalent
    assert len(checks) == 1
    assert sorted(calls) == sorted([(5, 2, X.R, X.Q), (5, 2, Y.R, Y.Q)])


def test_hypothesis_guard():
    X = product_of_lens_spaces(3, (1, 1), (1, 1))
    with pytest.raises(HypothesisViolation):
        homotopy_equivalent(X, X)


def test_freeness_guard():
    X = validate(RotationData(5, 2, (1, 0, 1, 0), (0, 1, 0, 1)))
    with pytest.raises(InvalidRotation):
        homotopy_equivalent(X, X)


def test_matching_substitutions_requires_free_spaces():
    """The non-free pair is refused at the boundary, as by the deciders; its
    k-pair has rank 1, which the mix solver does not handle."""
    X = validate(RotationData(5, 2, (1, 0, 1, 0), (0, 1, 0, 1)))
    Y = lens(5, 1, 1)
    assert k_invariant(X).coeff_pair() == ((0, 1, 0), (0, 1, 0))
    for pair in ((X, X), (X, Y), (Y, X)):
        with pytest.raises(InvalidRotation):
            matching_substitutions(*pair)
    kx, ky = k_invariant(Y).coeff_pair(), k_invariant(lens(5, 1, 4)).coeff_pair()
    assert matching_substitutions(Y, lens(5, 1, 4)) == _matching_substitutions(5, 2, kx, ky)
    with pytest.raises(InvalidRotation):
        homeomorphic(X, X)


def test_canonical_form_requires_free_spaces():
    """A non-free pair has no quotient manifold, so no canonical form."""
    X = validate(RotationData(5, 2, (1, 0, 1, 0), (0, 1, 0, 1)))
    with pytest.raises(InvalidRotation):
        canonical_form(X)
    with pytest.raises(HypothesisViolation):
        canonical_form(validate(RotationData(3, 2, (1, 0, 1, 0), (0, 1, 0, 1))))


def test_marked_mode_restricts_substitution():
    X = lens(5, 1, 1)
    # unmarked: k = (a^2, b^2) vs (4a^2, b^2) has witness with A = diag(2,1)
    Y = validate(RotationData(5, 2, (2, 2, 0, 0), (0, 0, 1, 1)))
    assert homotopy_equivalent(X, Y).equivalent
    v = homotopy_equivalent(X, Y, marked=True)
    # k_Y = (4a^2, b^2); B = diag(4, 1) rescales without substitution
    assert v.equivalent
    assert v.witness.A == Mat2.identity(5)
    Z = lens(5, 1, 2)
    assert not homotopy_equivalent(X, Z, marked=True).equivalent


def test_marked_witnesses_fix_identity():
    X = lens(7, 1, 1)
    Y = lens(7, 2, 2)
    v = homotopy_equivalent(X, Y, marked=True)
    if v.equivalent:
        assert v.witness.A == Mat2.identity(7)


def test_canonical_form_examples():
    assert canonical_form(lens(5, 1, 1)) == canonical_form(lens(5, 4, 1))
    assert canonical_form(lens(5, 1, 1)) == canonical_form(lens(5, 1, 4))
    assert canonical_form(lens(5, 1, 1)) != canonical_form(lens(5, 1, 2))


def test_canonical_form_equals_homotopy_partition():
    spaces = [lens(5, r1, r2) for r1 in range(1, 5) for r2 in range(1, 5)]
    for X in spaces:
        for Y in spaces:
            same_key = canonical_form(X) == canonical_form(Y)
            assert same_key == homotopy_equivalent(X, Y).equivalent


def test_block_swap_is_an_equivalence():
    d = validate(RotationData(5, 2, (1, 2, 0, 0), (0, 0, 1, 3)))
    swapped = validate(
        RotationData(5, 2, d.R[2:] + d.R[:2], d.Q[2:] + d.Q[:2])
    )
    assert homotopy_equivalent(d, swapped).equivalent


def test_matching_substitutions_contains_inverse_orbits():
    X, Y = lens(5, 1, 1), lens(5, 1, 4)
    subs_xy = matching_substitutions(X, Y)
    subs_yx = matching_substitutions(Y, X)
    assert subs_xy
    inverses = {Mat2(5, a).inverse().entries for a in subs_xy}
    assert inverses == set(subs_yx)


def test_verdict_json_shape():
    v = homotopy_equivalent(lens(5, 1, 1), lens(5, 1, 4))
    doc = v.to_json()
    assert doc["equivalent"] is True
    assert doc["level"] == "homotopy"
    assert set(doc["witness"]) == {"A", "B"}
    assert isinstance(doc["checked_pairs"], int)


@settings(max_examples=60, deadline=None)
@given(free_space_strategy(5), st.data())
def test_homotopy_invariant_under_group_relabeling(d, data):
    """Replacing (R, Q) by another basis of their plane gives an equivalent
    space: the change of pi_1 identification is absorbed by the search."""
    p = d.p
    m = data.draw(
        st.sampled_from([(1, 1, 0, 1), (2, 0, 0, 1), (0, 1, 1, 0), (1, 2, 3, 2)])
    )
    det = (m[0] * m[3] - m[1] * m[2]) % p
    if det == 0:
        return
    R2 = tuple((m[0] * r + m[1] * q) % p for r, q in zip(d.R, d.Q))
    Q2 = tuple((m[2] * r + m[3] * q) % p for r, q in zip(d.R, d.Q))
    d2 = validate(RotationData(p, d.n, R2, Q2))
    assert homotopy_equivalent(d, d2).equivalent
    assert canonical_form(d) == canonical_form(d2)


@settings(max_examples=40, deadline=None)
@given(free_space_strategy(5), free_space_strategy(5))
def test_symmetric_witness_is_the_inverse_pair(d1, d2):
    v = homotopy_equivalent(d1, d2)
    w = homotopy_equivalent(d2, d1)
    assert v.equivalent == w.equivalent
    if v.equivalent:
        A_inv = v.witness.A.inverse()
        B_inv = v.witness.B.inverse()
        k1, k2 = k_invariant(d1), k_invariant(d2)
        sx = (substitute(k2.first, A_inv), substitute(k2.second, A_inv))
        b11, b12, b21, b22 = B_inv.entries
        assert (
            sx[0].scale(b11) + sx[1].scale(b12),
            sx[0].scale(b21) + sx[1].scale(b22),
        ) == (k1.first, k1.second)


def test_lens_homotopy_examples():
    assert lens_homotopy_equivalent(7, 2, (1, 1), (1, 2))
    assert lens_homotopy_equivalent(7, 2, (1, 3), (1, 3))
    assert not lens_homotopy_equivalent(5, 2, (1, 1), (1, 2))


def test_lens_simple_examples():
    assert not lens_simple_homotopy_equivalent(7, 2, (1, 1), (1, 2))
    assert lens_simple_homotopy_equivalent(7, 2, (1, 3), (1, 3))
    assert lens_simple_homotopy_equivalent(7, 2, (2, 2), (1, 1))


def test_lens_guards():
    with pytest.raises(InvalidRotation):
        lens_homotopy_equivalent(5, 2, (1, 0), (1, 1))
    with pytest.raises(InvalidDimension):
        lens_simple_homotopy_equivalent(5, 0, (), ())
    # n has no cap: the candidate units are the n ratios r[i] / r'[0]
    assert lens_simple_homotopy_equivalent(5, 9, (1,) * 9, (1,) * 9)
    assert lens_simple_homotopy_equivalent(5, 9, (1,) * 8 + (2,), (3,) * 8 + (1,))
    assert not lens_simple_homotopy_equivalent(5, 9, (1,) * 8 + (2,), (1,) * 9)


@pytest.mark.parametrize("baseline", [lens_homotopy_equivalent, lens_simple_homotopy_equivalent])
@pytest.mark.parametrize("r, rprime", [((1, 2), (1,)), ((1,), (1, 2)), ((1, 2, 3), (1, 2, 3))])
def test_lens_baselines_refuse_tuples_of_the_wrong_length(baseline, r, rprime):
    with pytest.raises(InvalidRotation, match="rotation tuples must have length n = 2"):
        baseline(5, 2, r, rprime)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: product_of_lens_spaces(p, (1,), (0,)),
        lambda p: lens_homotopy_equivalent(p, 0, (0,), ()),
        lambda p: lens_simple_homotopy_equivalent(p, 2, (0,), (1, 1, 1)),
        lambda p: lens_total_pontrjagin(p, (0,)),
    ],
)
def test_lens_entry_points_refuse_a_bad_prime_first(call):
    """Each call also has a zero rotation, and all but the last a bad
    dimension or tuple length."""
    with pytest.raises(InvalidPrime):
        call(9)


@pytest.mark.parametrize(
    "call",
    [
        lambda: product_of_lens_spaces(5, (1, 2), (5, 1)),
        lambda: lens_homotopy_equivalent(5, 2, (1, -10), (1, 1)),
        lambda: lens_simple_homotopy_equivalent(5, 2, (1, 1), (0, 1)),
        lambda: lens_total_pontrjagin(5, (2, 15)),
    ],
)
def test_lens_entry_points_share_the_rotation_refusal(call):
    with pytest.raises(InvalidRotation, match="^lens-space rotation numbers must be nonzero mod p$"):
        call()


def test_matching_substitutions_across_settings_is_empty():
    X = product_of_lens_spaces(7, (1, 2), (1, 3))
    for Y in (product_of_lens_spaces(5, (1, 2), (1, 3)), product_of_lens_spaces(7, (1, 2, 3), (1, 2, 3))):
        assert matching_substitutions(X, Y) == ()
        assert matching_substitutions(Y, X) == ()


@pytest.mark.parametrize(
    "A, B, message",
    [
        ((1, 2, 2, 4), (1, 0, 0, 1), "witness substitution A must be invertible"),
        ((0, 0, 0, 0), (1, 0, 0, 1), "witness substitution A must be invertible"),
        ((1, 0, 0, 1), (2, 0, 0, 1), "witness coefficient matrix B must have det \\+-1"),
        ((1, 0, 0, 1), (1, 1, 1, 1), "witness coefficient matrix B must have det \\+-1"),
    ],
)
def test_equivalence_witness_refuses_bad_matrices(A, B, message):
    with pytest.raises(ValueError, match=message):
        EquivalenceWitness(Mat2(5, A), Mat2(5, B), LEVEL_HOMOTOPY)


# oracles: the scans over every unit t (resp. k) mod p that the lens
# baselines ran before their closed forms

def _loop_lens_homotopy(p, n, r, rp):
    pr = math.prod(r) % p
    pq = math.prod(rp) % p
    return any(pow(t, n, p) * pr % p in (pq, (p - pq) % p) for t in range(1, p))


def _loop_lens_simple(p, n, r, rp):
    base = sorted(x % p for x in r)
    return any(sorted(k * x % p for x in rp) == base for k in range(1, p))


def _check_lens_closed_forms(p, n, pairs):
    kinds = set()
    for r, rp in pairs:
        got = (lens_homotopy_equivalent(p, n, r, rp), lens_simple_homotopy_equivalent(p, n, r, rp))
        assert got == (_loop_lens_homotopy(p, n, r, rp), _loop_lens_simple(p, n, r, rp)), (p, r, rp)
        kinds.add(got)
    # simple-homotopy equivalence implies homotopy equivalence
    assert (False, True) not in kinds
    return kinds


@pytest.mark.parametrize("p,n", [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (11, 2), (13, 2)])
def test_lens_closed_forms_match_the_unit_scans(p, n):
    """Every multiset r against every ordered r' (the closed forms read r'[0])."""
    units = range(1, p)
    pairs = [
        (r, rp)
        for r in itertools.combinations_with_replacement(units, n)
        for rp in itertools.product(units, repeat=n)
    ]
    assert {(True, True), (True, False)} <= _check_lens_closed_forms(p, n, pairs)


@pytest.mark.parametrize("p,n", [(11, 3), (13, 3), (13, 4), (31, 5)])
def test_lens_closed_forms_match_the_unit_scans_seeded(p, n):
    """Random pairs, half of them r' = k * (a permutation of r) for a random
    unit k, with one entry rescaled in half of those."""
    rng = random.Random(p * n)
    pairs = []
    for i in range(1500):
        r = [rng.randrange(1, p) for _ in range(n)]
        if i % 2:
            rp = [rng.randrange(1, p) for _ in range(n)]
        else:
            k = rng.randrange(1, p)
            rp = [k * x % p for x in rng.sample(r, n)]
            if i % 4 == 0:
                rp[rng.randrange(n)] = rp[0] * rng.randrange(2, p) % p
        pairs.append((tuple(r), tuple(rp)))
    assert {(True, True), (True, False)} <= _check_lens_closed_forms(p, n, pairs)


def test_lens_square_criterion_cross_oracle():
    """t^2 r = +-r' has a solution iff r'/r or -r'/r is a QR."""
    for p in (5, 7, 11):
        for r in range(1, p):
            for rp in range(1, p):
                ratio = rp * inv(r, p) % p
                classical = is_quadratic_residue(ratio, p) or is_quadratic_residue(
                    (p - ratio) % p, p
                )
                assert lens_homotopy_equivalent(p, 2, (1, r), (1, rp)) == classical


def test_lens_simple_implies_homotopy():
    p = 7
    for r in itertools.product(range(1, p), repeat=2):
        for rp in itertools.product(range(1, p), repeat=2):
            if lens_simple_homotopy_equivalent(p, 2, r, rp):
                assert lens_homotopy_equivalent(p, 2, r, rp)


# ---------------------------------------------------------------------------
# oracle: the per-substitution GL2 scan the deciders ran before the search
# moved to PGL2.  Every A of GL2 gets its own transport, its own validated
# rref and its own mix, from a solver that lists every solution.

_IDENT = (1, 0, 0, 1)


def _oracle_mix_solver(u, v, p):
    """Return solve(y) -> ordered list of (c, d) with c*u + d*v = y; u and v
    must be independent."""
    m = len(u)
    i0 = next(i for i in range(m) if u[i] or v[i])
    j0 = next(j for j in range(m) if (u[i0] * v[j] - v[i0] * u[j]) % p)
    det_inv = inv(u[i0] * v[j0] - v[i0] * u[j0], p)

    def solve(y):
        c = (y[i0] * v[j0] - v[i0] * y[j0]) * det_inv % p
        d = (u[i0] * y[j0] - y[i0] * u[j0]) * det_inv % p
        for k in range(m):
            if (c * u[k] + d * v[k] - y[k]) % p:
                return []
        return [(c, d)]

    return solve


@lru_cache(maxsize=2**17)
def _oracle_transported(p, deg, A, x1, x2):
    M = substitution_matrix(p, deg, A)
    u = apply_matrix(M, x1, p)
    v = apply_matrix(M, x2, p)
    return u, v, span_key([u, v], p)


def _oracle_decide(X, Y, level, marked=False, class_check=None):
    p, n = X.p, X.n
    kx = k_invariant(X)
    ky = k_invariant(Y)
    x1, x2 = kx.first.coeffs, kx.second.coeffs
    y1, y2 = ky.first.coeffs, ky.second.coeffs
    checked = 0
    if (x1, x2) == (y1, y2):
        checked += 1
        if class_check is None or class_check(_IDENT):
            w = EquivalenceWitness(Mat2.identity(p), Mat2.identity(p), level)
            return Verdict(True, w, checked, level)
    target_span = span_key([y1, y2], p)
    substitutions = (_IDENT,) if marked else gl2_elements(p)
    class_ok = {}
    for A in substitutions:
        if A == _IDENT and (x1, x2) == (y1, y2):
            continue  # the shortcut above has checked the identity
        u, v, sk = _oracle_transported(p, n, A, x1, x2)
        if sk != target_span:
            continue
        solve = _oracle_mix_solver(u, v, p)
        rows1 = solve(y1)
        if not rows1:
            continue
        rows2 = solve(y2)
        for c, d in rows1:
            for e, f in rows2:
                checked += 1
                if (c * f - d * e) % p not in (1, p - 1):
                    continue
                if class_check is not None:
                    ok = class_ok.get(A)
                    if ok is None:
                        ok = class_ok[A] = class_check(A)
                    if not ok:
                        continue
                w = EquivalenceWitness(Mat2(p, A), Mat2(p, (c, d, e, f)), level)
                return Verdict(True, w, checked, level)
    return Verdict(False, None, checked, level)


def _oracle_homeomorphic(X, Y, marked=False):
    p = X.p
    model_y = ring_model(p, X.n, k_invariant(Y).coeff_pair())
    cls_x = total_pontrjagin_raw(X)
    cls_y = total_pontrjagin(Y)
    degrees = sorted(set(cls_x) | {deg for deg, _ in cls_y.components})

    def class_check(A_entries):
        A = Mat2(p, A_entries)
        for degree in degrees:
            fx = cls_x.get(degree)
            if fx is None:
                fx = HomogeneousForm(p, (0,) * (degree // 2 + 1))
            moved = substitute(fx, A).coeffs
            fy = cls_y.component(degree).coeffs
            if any(model_y.reduce_coeffs(tuple(x - y for x, y in zip(moved, fy)))):
                return False
        return True

    return _oracle_decide(X, Y, LEVEL_HOMEO, marked, class_check)


def _oracle_matching_substitutions(p, n, kx_pair, ky_pair):
    x1, x2 = kx_pair
    y1, y2 = ky_pair
    target_span = span_key([y1, y2], p)
    found = []
    for A in gl2_elements(p):
        u, v, sk = _oracle_transported(p, n, A, x1, x2)
        if sk != target_span:
            continue
        solve = _oracle_mix_solver(u, v, p)
        rows1 = solve(y1)
        if not rows1:
            continue
        rows2 = solve(y2)
        if any((c * f - d * e) % p in (1, p - 1) for c, d in rows1 for e, f in rows2):
            found.append(A)
    return tuple(found)


def _random_free(rng, p, n):
    while True:
        R = tuple(rng.randrange(p) for _ in range(2 * n))
        Q = tuple(rng.randrange(p) for _ in range(2 * n))
        if all((R[i] * Q[j] - Q[i] * R[j]) % p for i in range(n) for j in range(n, 2 * n)):
            return validate(RotationData(p, n, R, Q))


def _relabelled(rng, X):
    """X with new generators, columns permuted within their blocks, the blocks
    maybe swapped, random column signs, and half the time one column scaled:
    the scaling keeps span k(X) up to substitution but may leave no det +-1
    mix, which gives negatives with checked_pairs > 0."""
    p, n = X.p, X.n
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            break
    cols = [((a * r + b * q) % p, (c * r + d * q) % p) for r, q in zip(X.R, X.Q)]
    first, second = cols[:n], cols[n:]
    rng.shuffle(first)
    rng.shuffle(second)
    if rng.random() < 0.5:
        first, second = second, first
    cols = [(r, q) if rng.random() < 0.5 else (-r % p, -q % p) for r, q in first + second]
    if rng.random() < 0.5:
        t = rng.randrange(2, p)
        cols[0] = (t * cols[0][0] % p, t * cols[0][1] % p)
    return validate(RotationData(p, n, tuple(r for r, _ in cols), tuple(q for _, q in cols)))


def test_scan_matches_the_per_substitution_oracle():
    deciders = (
        (homotopy_equivalent, lambda X, Y, m: _oracle_decide(X, Y, LEVEL_HOMOTOPY, m)),
        (simple_homotopy_equivalent, lambda X, Y, m: _oracle_decide(X, Y, LEVEL_SIMPLE, m)),
        (homeomorphic, _oracle_homeomorphic),
    )
    kinds = set()
    try:
        for p, n, pairs in ((5, 2, 12), (7, 2, 10), (7, 3, 6), (11, 2, 4), (13, 2, 3)):
            rng = random.Random(100 * p + n)
            for i in range(pairs):
                X = _random_free(rng, p, n)
                Y = _relabelled(rng, X) if i % 2 == 0 else _random_free(rng, p, n)
                for decide, oracle in deciders:
                    for marked in (False, True):
                        got, want = decide(X, Y, marked), oracle(X, Y, marked)
                        assert got.to_json() == want.to_json(), (X, Y, got.level, marked)
                        kinds.add((got.equivalent, got.checked_pairs > 0))
                kx, ky = k_invariant(X).coeff_pair(), k_invariant(Y).coeff_pair()
                assert _matching_substitutions(p, n, kx, ky) == _oracle_matching_substitutions(
                    p, n, kx, ky
                )
                assert _matching_substitutions(p, n, kx, kx) == _oracle_matching_substitutions(
                    p, n, kx, kx
                )
    finally:
        _oracle_transported.cache_clear()
    # positives, negatives with no span match, and negatives whose span
    # matches but admit no det +-1 mix
    assert kinds >= {(True, True), (False, False), (False, True)}


def test_equal_k_pairs_check_the_identity_once():
    """Two spaces with one k-invariant pair whose identity fails the
    Pontrjagin check: the shortcut checks (I, I), and the walk, which lists
    the identity among its 96 span matches, does not check it again.  So
    the unmarked negative checks 96 pairs, and the marked one checks its
    one candidate once."""
    X = validate(RotationData(7, 2, (0, 5, 3, 2), (5, 6, 1, 4)))
    Y = validate(RotationData(7, 2, (0, 6, 3, 2), (3, 3, 1, 4)))
    kx, ky = k_pair(7, 2, X.R, X.Q), k_pair(7, 2, Y.R, Y.Q)
    assert kx == ky
    walked = [A for A, _ in classify._span_matches(7, 2, kx, ky)]
    assert len(walked) == 96 and (1, 0, 0, 1) in walked
    for marked, checked in ((False, 96), (True, 1)):
        got = homeomorphic(X, Y, marked)
        assert (got.equivalent, got.checked_pairs) == (False, checked)
        assert got.to_json() == _oracle_homeomorphic(X, Y, marked).to_json()


def _pencil_squares(X):
    """Members of the pencil span k(X) that are squares of linear forms
    (n = 2: zero discriminant); preserved by substitution and by the mix."""
    p = X.p
    f, g = k_invariant(X).coeff_pair()
    count = 0
    for s, t in itertools.product(range(p), repeat=2):
        c0, c1, c2 = ((s * x + t * y) % p for x, y in zip(f, g))
        if (c0 or c1 or c2) and (c1 * c1 - 4 * c0 * c2) % p == 0:
            count += 1
    return count


def test_negative_scan_transports_once_per_scalar_class():
    p = 13
    rng = random.Random(5)
    while True:
        X, Y = _random_free(rng, p, 2), _random_free(rng, p, 2)
        if _pencil_squares(X) != _pencil_squares(Y):
            break  # certified negative: the decider must exhaust every class
    classify._transported.cache_clear()
    try:
        v = homotopy_equivalent(X, Y)
        info = classify._transported.cache_info()
    finally:
        classify._transported.cache_clear()
    assert not v.equivalent
    pgl2 = p * (p * p - 1)  # 2,184; GL2 has 26,208
    assert info.misses <= pgl2


_PEAK_SCRIPT = """
import json, resource, sys
from lenspp.actions import RotationData, validate
from lenspp.classify import homeomorphic
X, Y = (validate(RotationData(31, 2, tuple(R), tuple(Q))) for R, Q in json.loads(sys.argv[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
verdict = homeomorphic(X, Y)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([verdict.equivalent, (after - before) / 1024]))
"""


def test_negative_at_the_gl2_cap_keeps_no_gl2_table():
    """One certified-negative homeomorphic call at p = 31 walks all 29,760
    PGL2 classes; in a fresh process it raises peak RSS (ru_maxrss, KiB on
    Linux) by well under the 887,040-element GL2 table's ~77 MB."""
    p = 31
    rng = random.Random(31)
    while True:
        X, Y = _random_free(rng, p, 2), _random_free(rng, p, 2)
        if _pencil_squares(X) != _pencil_squares(Y):
            break
    src = Path(classify.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _PEAK_SCRIPT, json.dumps([[X.R, X.Q], [Y.R, Y.Q]])],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    equivalent, added_mb = json.loads(proc.stdout)
    assert not equivalent
    assert added_mb < 60


# ---------------------------------------------------------------------------
# the pencil profile: zero counts of the k-invariant pencil's members, which
# the deciders compare before the transport walk

def _profile(X):
    return classify._pencil(X.p, *k_invariant(X).coeff_pair())[2]


@pytest.mark.parametrize("p,n", [(5, 2), (7, 2), (7, 3), (11, 2), (13, 2)])
def test_pencil_profile_is_invariant_under_substitution_and_mix(p, n):
    assert classify._pencil.cache_parameters()["maxsize"] is not None
    rng = random.Random(1000 * p + n)
    gl2 = gl2_elements(p)
    mixes = [b for b in gl2 if (b[0] * b[3] - b[1] * b[2]) % p in (1, p - 1)]
    for _ in range(40):
        X = _random_free(rng, p, n)
        x1, x2 = k_invariant(X).coeff_pair()
        want = classify._pencil(p, x1, x2)[2]
        if n == 2:  # a member with one zero is a square: the walk tests' count
            assert want.count(1) * (p - 1) == _pencil_squares(X)
        M = substitution_matrix(p, n, rng.choice(gl2))
        u, v = apply_matrix(M, x1, p), apply_matrix(M, x2, p)
        c, d, e, f = rng.choice(mixes)
        y1 = tuple((c * a + d * b) % p for a, b in zip(u, v))
        y2 = tuple((e * a + f * b) % p for a, b in zip(u, v))
        assert classify._pencil(p, y1, y2)[2] == want, (X, y1, y2)
        assert _profile(_relabelled(rng, X)) == want, X


class _KeysOnly(dict):
    """An orbit store that keeps only the given pairs: whole orbits at (7, 3)
    run to ~10^5 pairs each, and only the keys asked about are looked up."""

    def __init__(self, keep):
        super().__init__()
        self.keep = keep

    def __setitem__(self, pair, entry):
        if pair in self.keep:
            super().__setitem__(pair, entry)


def _check_profile_of_canonical_pairs(monkeypatch, p, n, keys):
    keys = set(keys)
    monkeypatch.setattr(classify, "_ORBITS", {(p, n): _KeysOnly(keys)})
    for key in keys:
        canon, _, _ = classify._canonicalize(p, n, key)
        assert classify._pencil(p, *canon)[2] == classify._pencil(p, *key)[2], key
    assert classify._ORBITS[(p, n)].keys() == keys


def test_pencil_profile_of_every_free_space_p3_is_its_canonical_pairs(monkeypatch):
    keys = {k_pair(3, 2, d.R, d.Q) for d in enumerate_free(3, 2)}
    _check_profile_of_canonical_pairs(monkeypatch, 3, 2, keys)


@pytest.mark.parametrize("p,n", [(5, 2), (7, 3)])
def test_pencil_profile_of_seeded_spaces_is_their_canonical_pairs(monkeypatch, p, n):
    rng = random.Random(20 * p + n)
    keys = [k_invariant(_random_free(rng, p, n)).coeff_pair() for _ in range(500)]
    _check_profile_of_canonical_pairs(monkeypatch, p, n, keys)


def test_negative_with_differing_profiles_transports_nothing():
    p = 13
    rng = random.Random(5)
    while True:
        X, Y = _random_free(rng, p, 2), _random_free(rng, p, 2)
        if _pencil_squares(X) != _pencil_squares(Y):
            break
    assert _profile(X) != _profile(Y)
    classify._transported.cache_clear()
    try:
        verdicts = [decide(X, Y) for decide in (homotopy_equivalent, homeomorphic)]
        info = classify._transported.cache_info()
    finally:
        classify._transported.cache_clear()
    assert [(v.equivalent, v.checked_pairs) for v in verdicts] == [(False, 0), (False, 0)]
    assert info.hits + info.misses == 0


def _record_ring_models(monkeypatch):
    """Wrap classify.ring_model; returns the list of (p, n) it is built for."""
    builds = []
    real = classify.ring_model

    def recording(p, n, pair):
        builds.append((p, n))
        return real(p, n, pair)

    monkeypatch.setattr(classify, "ring_model", recording)
    return builds


@pytest.mark.parametrize("p,n", [(37, 2), (101, 60)])
def test_homeomorphic_refuses_above_the_gl2_cap_before_any_ring_model(monkeypatch, p, n):
    builds = _record_ring_models(monkeypatch)
    rng = random.Random(p * n)

    def units():
        return tuple(rng.randrange(1, p) for _ in range(n))

    X, Y = (product_of_lens_spaces(p, units(), units()) for _ in range(2))
    assert k_invariant(X) != k_invariant(Y)
    with pytest.raises(CapacityError):
        homeomorphic(X, Y)
    assert builds == []


def test_homeomorphic_profile_pruned_negative_builds_no_ring_model(monkeypatch):
    builds = _record_ring_models(monkeypatch)
    p = 13
    rng = random.Random(5)
    while True:
        X, Y = _random_free(rng, p, 2), _random_free(rng, p, 2)
        if _profile(X) != _profile(Y):
            break
    assert not homeomorphic(X, Y).equivalent
    assert builds == []
    assert homeomorphic(X, X).equivalent  # the identity check builds Y's model
    assert builds == [(p, 2)]


def test_negative_with_equal_profiles_walks_every_scalar_class():
    """Equal profiles leave the negative to the walk.  At n = 2 equal
    profiles put the spans in one PGL2 orbit, so such a negative has span
    matches but no det +-1 mix; the per-substitution oracle proves it."""
    p = 13
    rng = random.Random(5)
    while True:
        X, Y = _random_free(rng, p, 2), _random_free(rng, p, 2)
        if _profile(X) == _profile(Y) and not homotopy_equivalent(X, Y).equivalent:
            break
    want = _oracle_decide(X, Y, LEVEL_HOMOTOPY)
    assert not want.equivalent and want.checked_pairs > 0
    classify._transported.cache_clear()
    try:
        got = homotopy_equivalent(X, Y)
        info = classify._transported.cache_info()
    finally:
        classify._transported.cache_clear()
    assert got.to_json() == want.to_json()
    assert 0 < info.misses <= p * (p * p - 1)


def _cube_free_lens_negative(p):
    """X = L(p; 1,1,1) x L(p; 1,1,1) and Y = L(p; 1,1,t) x L(p; 1,1,1), with
    k-pairs (a^3, b^3) and (t*a^3, b^3): one span, so equal profiles.  The
    only cubes of linear forms in that pencil are a^3 and b^3, so a matching
    A is monomial and its mixes have det +-t / (xy)^3; with +-t no cube,
    none has det +-1 and the spaces are not homotopy equivalent."""
    t = next(t for t in range(2, p) if pow(t, (p - 1) // 3, p) != 1)
    assert pow(p - t, (p - 1) // 3, p) != 1
    return (
        product_of_lens_spaces(p, (1, 1, 1), (1, 1, 1)),
        product_of_lens_spaces(p, (1, 1, t), (1, 1, 1)),
    )


def test_negative_with_equal_profiles_at_the_gl2_cap_keeps_no_gl2_table():
    """At p = 31, n = 2, no negative has equal profiles: equal profiles put
    the spans in one orbit, and lam*A scales a mix's determinant by lam^-4,
    which runs over the squares; with -1 a non-square, some scaled mix has
    det +-1.  So the cap's walk is exercised at n = 3, on a pair certified
    negative in closed form; in a fresh process it raises peak RSS by well
    under the GL2 table's ~77 MB."""
    p = 31
    X, Y = _cube_free_lens_negative(p)
    assert _profile(X) == _profile(Y)
    src = Path(classify.__file__).resolve().parents[1]
    script = _PEAK_SCRIPT.replace("RotationData(31, 2,", "RotationData(31, 3,")
    assert script != _PEAK_SCRIPT
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script, json.dumps([[X.R, X.Q], [Y.R, Y.Q]])],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    equivalent, added_mb = json.loads(proc.stdout)
    assert not equivalent
    assert added_mb < 10


# ---------------------------------------------------------------------------
# the incidence prefilter: the walk transports only the representatives A
# whose action on P^1 keeps two zeros of one member of span k(Y) on one
# member of span k(X) with as many zeros

def _oracle_span_matches(p, n, kx_pair, ky_pair):
    """Every A of GL2, in row-major order, whose transported pair spans the
    plane of ky_pair (per-substitution span keys)."""
    target_span = span_key(list(ky_pair), p)
    return tuple(
        A for A in gl2_elements(p) if _oracle_transported(p, n, A, *kx_pair)[2] == target_span
    )


def _full_walk(monkeypatch, p, n, kx, ky):
    """Every yield of an unmarked _span_matches walked to its end, and the
    substitutions it transported, in order."""
    transported = []
    real = classify._transported

    def recording(p, A, x1, x2):
        transported.append(A)
        return real(p, A, x1, x2)

    monkeypatch.setattr(classify, "_transported", recording)
    try:
        return list(classify._span_matches(p, n, kx, ky)), transported
    finally:
        monkeypatch.setattr(classify, "_transported", real)


def _representative(A, p):
    """The PGL2 representative of A: its first row's first nonzero entry is 1."""
    s = inv(A[0] or A[1], p)
    return tuple(s * x % p for x in A)


@pytest.mark.parametrize("p,n,pairs", [(5, 2, 9), (7, 2, 9), (7, 3, 6), (13, 2, 3)])
def test_prefilter_transports_every_oracle_match(monkeypatch, p, n, pairs):
    """On relabelled pairs, self-pairs and random pairs of equal profile, the
    representative of every A that the per-substitution oracle finds over
    all of GL2 (span matches, and among them the matching substitutions) is
    transported, and the walk yields exactly the oracle's span matches."""
    rng = random.Random(70 * p + n)
    kinds = set()
    try:
        for i in range(pairs):
            X = _random_free(rng, p, n)
            if i % 3 == 0:
                Y = _relabelled(rng, X)
            elif i % 3 == 1:
                Y = X
            else:
                Y = _random_free(rng, p, n)
                while _profile(Y) != _profile(X):
                    Y = _random_free(rng, p, n)
            kx, ky = k_invariant(X).coeff_pair(), k_invariant(Y).coeff_pair()
            matches, transported = _full_walk(monkeypatch, p, n, kx, ky)
            span = _oracle_span_matches(p, n, kx, ky)
            oracle = _oracle_matching_substitutions(p, n, kx, ky)
            assert set(oracle) <= set(span)
            assert {_representative(A, p) for A in span} <= set(transported), (X, Y)
            assert [A for A, _ in matches] == list(span), (X, Y)
            kinds.add((i % 3, bool(oracle)))
    finally:
        _oracle_transported.cache_clear()
    assert {(0, True), (1, True)} <= kinds  # relabelled positives and self-pairs
    assert {kind for kind, _ in kinds} == {0, 1, 2}


def test_prefilter_keeps_the_equal_profile_negatives_of_the_oracle(monkeypatch):
    """Equal-profile negatives at (5, 2), (13, 2) and (7, 3), found with the
    deciders and confirmed by the oracle: every span match is transported."""
    try:
        for p, n in ((5, 2), (13, 2), (7, 3)):
            rng = random.Random(90 * p + n)
            while True:
                X, Y = _random_free(rng, p, n), _random_free(rng, p, n)
                if _profile(X) == _profile(Y) and not homotopy_equivalent(X, Y).equivalent:
                    break
            kx, ky = k_invariant(X).coeff_pair(), k_invariant(Y).coeff_pair()
            assert _oracle_matching_substitutions(p, n, kx, ky) == ()
            matches, transported = _full_walk(monkeypatch, p, n, kx, ky)
            span = _oracle_span_matches(p, n, kx, ky)
            assert {_representative(A, p) for A in span} <= set(transported), (X, Y)
            assert [A for A, _ in matches] == list(span), (X, Y)
    finally:
        _oracle_transported.cache_clear()


def _index(point, p):
    """The P^1 index of the point (s : t): t / s, or p when s = 0."""
    s, t = point
    return t * inv(s, p) % p if s % p else p


def _pgl2_representatives(p):
    """The invertible A whose first row's first nonzero entry is 1, in
    row-major order."""
    rows = [(0, 1)] + [(1, b) for b in range(p)]
    return [(a, b, c, d) for a, b in rows for c in range(p) for d in range(p) if (a * d - b * c) % p]


def _probe_pairs(p, n, ky):
    """The walk's probes, read off member and zeros of k(Y)'s pencil: the
    first two zeros of the first member with the most zeros z, then those
    of the first other member with at least two, each with its zero count."""
    member, zeros = classify._pencil(p, *ky)[:2]
    roots = [[k for k, m in enumerate(member) if m == j] for j in range(p + 1)]
    first = zeros.index(max(zeros))
    later = [(r[:2], len(r)) for j, r in enumerate(roots) if j != first and len(r) >= 2]
    return [(roots[first][:2], zeros[first])] + later[:1]


def _oracle_incident(p, n, kx, ky):
    """Brute force over PGL2: the representatives A for which, for each
    probe pair (P, P') with zero count zz, the member of span k(X) vanishing
    at phi_A(P) also vanishes at phi_A(P') and has zz zeros."""
    member, zeros = classify._pencil(p, *kx)[:2]
    probes = _probe_pairs(p, n, ky)

    def image(A, k):
        a, b, c, d = A
        s, t = classify._point(k, p)
        return _index(((a * s + b * t) % p, (c * s + d * t) % p), p)

    def incident(A):
        for (k0, k1), zz in probes:
            m0 = member[image(A, k0)]
            if zeros[m0] != zz or member[image(A, k1)] != m0:
                return False
        return True

    return [A for A in _pgl2_representatives(p) if incident(A)]


def _oracle_span_representatives(p, n, kx, ky):
    """The representatives of _oracle_span_matches, read on the
    representatives alone: lam*A carries span k(X) onto the same plane as A."""
    target_span = span_key(list(ky), p)
    return {A for A in _pgl2_representatives(p) if _oracle_transported(p, n, A, *kx)[2] == target_span}


@pytest.mark.parametrize("p,n", [(5, 3), (7, 2), (7, 3), (11, 3), (13, 2)])
def test_prefilter_transports_exactly_the_incident_representatives(monkeypatch, p, n):
    """With z >= 2 the most zeros of a member of span k(Y), a full walk
    transports exactly the representatives, in row-major order, that keep
    both probe pairs on members of span k(X) with the probed zero counts
    (brute force over PGL2).  At n = 2 those are exactly the span matches:
    the members with two zeros are the pairs of a Moebius involution, and
    two pairs fix its conjugacy.  At n = 3 some pencils also have members
    with 2 zeros, fewer than z = 3: a member that keeps two probes but has
    the wrong zero count is not transported."""
    rng = random.Random(80 * p + n)
    fewer = 0  # pencils with a member of 2 <= zeros < z
    try:
        for _ in range(40):
            X = _random_free(rng, p, n)
            Y = _relabelled(rng, X)
            kx, ky = k_invariant(X).coeff_pair(), k_invariant(Y).coeff_pair()
            zeros = classify._pencil(p, *kx)[1]
            assert sorted(zeros) == list(_profile(X)) == list(_profile(Y))
            z = max(zeros)
            if z < 2:
                continue  # see the next test
            _, transported = _full_walk(monkeypatch, p, n, kx, ky)
            assert transported == _oracle_incident(p, n, kx, ky), (X, Y)
            if n == 2:
                assert set(transported) == _oracle_span_representatives(p, n, kx, ky), (X, Y)
            fewer += any(1 < k < z for k in zeros)
    finally:
        _oracle_transported.cache_clear()
    assert fewer > 0 or n == 2


def _trial_row(p, a, b, member, zeros, probe_pairs):
    """The per-(c, d) trial loop that _row_solutions replaces: the (c, d),
    in lex order, with A = (a, b, c, d) invertible and, for each probe pair
    (P, P', zz), the member of span k(X) vanishing at phi_A(P) with zz zeros
    and vanishing at phi_A(P') too.  The row fixes the first coordinate
    f = a*s + b*t of phi_A(P), so its index is c*kc + d*kd, or p (o) if
    f = 0."""

    def index_of(point):
        s, t = point
        f = (a * s + b * t) % p
        q = inv(f, p) if f else 0
        return s * q % p, t * q % p, 0 if f else p

    tests = [(index_of(P), index_of(P1), zz) for P, P1, zz in probe_pairs]
    passed = []
    for c in range(p):
        for d in range(p):
            if (a * d - b * c) % p == 0:
                continue
            for (kc0, kd0, o0), (kc1, kd1, o1), zz in tests:
                m0 = member[(c * kc0 + d * kd0) % p + o0]
                if zeros[m0] != zz or m0 != member[(c * kc1 + d * kd1) % p + o1]:
                    break
            else:
                passed.append((c, d))
    return passed


def _probes(p, P0, P1, second=None):
    """A probes entry in _pencil's shape for the probe pair (P0, P1)."""
    return P0, P1, mat2_inv(P0 + P1, p), second


def _check_row_solutions(p, n, kx, probe_sets):
    """For every representative row and each probes entry (in _pencil's
    shape, or None), _row_solutions yields exactly the (c, d) the trial
    loop passes, in the same order.  Returns the cases hit: 'z<=1' (probes
    None), 'second' and 'no second' (a second probe pair or none), and
    'end' (a row where a probe's image is (0 : 1) with some (c, d) passing)."""
    pencil_x = classify._pencil(p, *kx)
    member, zeros = pencil_x[:2]
    z = max(zeros)
    hit = Counter()
    for probes in probe_sets:
        if probes is None:
            probe_pairs, case = [], "z<=1"
        else:
            P0, P1, _, second = probes
            probe_pairs = [(P0, P1, z)] + ([second] if second else [])
            case = "second" if second else "no second"
        hit[case] += 1
        for a, b in [(0, 1)] + [(1, b) for b in range(p)]:
            want = _trial_row(p, a, b, member, zeros, probe_pairs)
            got = classify._row_solutions(p, a, b, pencil_x, probes)
            assert list(got) == want, (kx, probes, a, b)
            if want and any((a * s + b * t) % p == 0 for P, P1, _ in probe_pairs for s, t in (P, P1)):
                hit["end"] += 1
    return hit


def _planes(p, n):
    """Every 2-dimensional subspace of the degree-n forms over GF(p) whose
    members have no common zero on P^1, as its rref rows."""
    m = n + 1
    for i, j in itertools.combinations(range(m), 2):
        free1 = [k for k in range(i + 1, m) if k != j]
        for v1 in itertools.product(range(p), repeat=len(free1)):
            for v2 in itertools.product(range(p), repeat=m - j - 1):
                r1, r2 = [0] * m, [0] * m
                r1[i], r2[j] = 1, 1
                for k, x in zip(free1, v1):
                    r1[k] = x
                r2[j + 1:] = v2
                points = (classify._point(k, p) for k in range(p + 1))
                if all(classify._at(r1, s, t, p) or classify._at(r2, s, t, p) for s, t in points):
                    yield tuple(r1), tuple(r2)


@pytest.mark.parametrize("p,n", [(5, 2), (7, 2), (5, 3), (7, 3)])
def test_row_solutions_are_the_trial_loop_on_every_pencil(p, n):
    """Exhaustive at p <= 7: on every base-point-free pencil, in every
    representative row, the yielded (c, d) are the ones the per-(c, d)
    trial loop passes, in lex order: with the pencil's own probes, which
    are None when no member has two zeros (25 of the 635 pencils at (5, 3),
    42 of 2,422 at (7, 3)) and lack a second pair on 300 and 616 of them,
    and at n = 2 also with every ordered pair of distinct points as the
    only probe pair."""
    hit = Counter()
    points = [classify._point(k, p) for k in range(p + 1)]
    for kx in _planes(p, n):
        probe_sets = [classify._pencil(p, *kx)[4]]
        if n == 2:
            probe_sets += [_probes(p, P, Q) for P in points for Q in points if P != Q]
        hit += _check_row_solutions(p, n, kx, probe_sets)
    assert hit["second"] and hit["no second"] and hit["end"], hit
    assert hit["z<=1"] or n == 2, hit  # at n = 2 some member has two zeros


@pytest.mark.parametrize("p,n", [(11, 2), (13, 3), (31, 2), (31, 3), (31, 4)])
def test_row_solutions_are_the_trial_loop_on_seeded_pairs(p, n):
    """Seeded up to the GL2 cap: on relabelled pairs, with the probes the
    walk takes from k(Y)'s pencil, every representative row yields the
    (c, d) the per-(c, d) trial loop passes."""
    rng = random.Random(60 * p + n)
    hit = Counter()
    for _ in range(8):
        X = _random_free(rng, p, n)
        kx, ky = k_invariant(X).coeff_pair(), k_invariant(_relabelled(rng, X)).coeff_pair()
        hit += _check_row_solutions(p, n, kx, [classify._pencil(p, *ky)[4]])
    assert hit["end"] > 0, hit


@pytest.mark.parametrize("p,n", [(5, 2), (7, 3), (13, 2), (31, 3)])
def test_mix_solver_is_the_oracle_solver(p, n):
    """On a k-pair substituted by A and mixed by an invertible B, the mix
    _mix_solver reads off the pivot columns of the transported pair is B,
    and it is the oracle's, which solves on its own columns and checks
    every coordinate."""
    rng = random.Random(70 * p + n)
    for _ in range(30):
        x1, x2 = k_invariant(_random_free(rng, p, n)).coeff_pair()
        A, B = _random_gl2(rng, p), _random_gl2(rng, p)
        M = substitution_matrix(p, n, A)
        u1, u2 = apply_matrix(M, x1, p), apply_matrix(M, x2, p)
        y1, y2 = (tuple((c * x + d * y) % p for x, y in zip(u1, u2)) for c, d in (B[:2], B[2:]))
        u, v = classify._transported(p, A, x1, x2)
        W, i0, j0, _ = classify._target_plane(p, y1, y2)
        got = classify._mix_solver(u, v, W, i0, j0, p)
        assert got == B, (x1, x2, A, B)
        solve = _oracle_mix_solver(u, v, p)
        assert solve(classify._values(p, y1)) + solve(classify._values(p, y2)) == [B[:2], B[2:]]


def test_prefilter_transports_every_representative_when_no_member_has_two_zeros(monkeypatch):
    """At (5, 3) about one pencil in 300 has every member with one zero."""
    p, n = 5, 3
    rng = random.Random(53)
    while True:
        X = _random_free(rng, p, n)
        if max(_profile(X)) == 1:
            break
    Y = _relabelled(rng, X)
    kx, ky = k_invariant(X).coeff_pair(), k_invariant(Y).coeff_pair()
    matches, transported = _full_walk(monkeypatch, p, n, kx, ky)
    assert transported == [A for A in gl2_elements(p) if (A[0] or A[1]) == 1]
    assert [A for A, _ in matches] == list(_oracle_span_matches(p, n, kx, ky))
    _oracle_transported.cache_clear()


def test_prefilter_transports_only_the_span_matches_of_the_cube_free_negative():
    """The p = 31 lens negative: the members a^3 - c*b^3 with c a nonzero
    cube have three zeros, ten of them.  60 representatives match, times
    30 scalars: 1,800 checked pairs.  The first probe pair alone admits
    10 * 3 * 2 * 30 = 1,800 representatives; with the second pair 120 are
    transported (against all 29,760 PGL2 classes without the prefilter)."""
    X, Y = _cube_free_lens_negative(31)
    classify._transported.cache_clear()
    try:
        got = homotopy_equivalent(X, Y)
        info = classify._transported.cache_info()
    finally:
        classify._transported.cache_clear()
    assert not got.equivalent
    assert got.checked_pairs == 1800
    assert info.misses == 120


# ---------------------------------------------------------------------------
# value coordinates: the walk transports by evaluating each form at n + 1
# points, not by a substitution matrix

def _random_gl2(rng, p):
    while True:
        A = tuple(rng.randrange(p) for _ in range(4))
        if (A[0] * A[3] - A[1] * A[2]) % p:
            return A


@pytest.mark.parametrize("p,n", [(5, 2), (7, 3), (13, 2), (31, 3)])
def test_transported_values_are_the_substituted_pair_at_the_points(p, n):
    """_transported(A) is the k-pair substituted by A, evaluated at the
    n + 1 points (1, i): sum_k c_k * i^k for its coefficients c."""
    rng = random.Random(40 * p + n)
    for _ in range(30):
        x1, x2 = k_invariant(_random_free(rng, p, n)).coeff_pair()
        A = _random_gl2(rng, p)
        M = substitution_matrix(p, n, A)
        want = tuple(
            tuple(
                sum(c * i**k for k, c in enumerate(apply_matrix(M, x, p))) % p
                for i in range(n + 1)
            )
            for x in (x1, x2)
        )
        assert classify._transported(p, A, x1, x2) == want, (x1, x2, A)


def _record_transports(monkeypatch):
    """Wrap classify._transported, its cache cleared; returns the list of
    (p, A) it is called with."""
    classify._transported.cache_clear()
    calls = []
    real = classify._transported

    def recording(p, A, x1, x2):
        calls.append((p, A))
        return real(p, A, x1, x2)

    monkeypatch.setattr(classify, "_transported", recording)
    return calls


_CAP_MESSAGE = "GL2 enumeration over GF(37) has 1822176 elements; capped at p <= 31"


@pytest.mark.parametrize(
    "entry",
    [
        homotopy_equivalent,
        simple_homotopy_equivalent,
        homeomorphic,
        matching_substitutions,
        lambda X, Y: canonical_form(X),
    ],
    ids=[
        "homotopy_equivalent",
        "simple_homotopy_equivalent",
        "homeomorphic",
        "matching_substitutions",
        "canonical_form",
    ],
)
def test_gl2_capacity_guard(monkeypatch, entry):
    """Above GL2_PRIME_CAP every walking entry point refuses with the cap's
    message before the pencil profiles are read and before any transport."""
    calls = _record_transports(monkeypatch)
    monkeypatch.setattr(classify, "_ORBITS", {})
    pencils = []
    real = classify._pencil
    monkeypatch.setattr(classify, "_pencil", lambda *args: pencils.append(args) or real(*args))
    X, Y = lens(37, 1, 2), lens(37, 2, 3)
    with pytest.raises(CapacityError) as exc:
        entry(X, Y)
    assert str(exc.value) == _CAP_MESSAGE
    assert calls == [] and pencils == []


def test_pgl2_enumeration_is_row_major_and_exact(monkeypatch):
    """The orbit pass of _canonicalize substitutes each PGL2 representative
    once, in row-major order: the elements of GL2 whose first nonzero entry
    is 1, p(p^2 - 1) of them (120 at p = 5, 336 at p = 7)."""
    real = classify.substitution_matrix
    for p, count in ((5, 120), (7, 336)):
        monkeypatch.setattr(classify, "_ORBITS", {})
        walked = []

        def recording(q, deg, A):
            walked.append(A)
            return real(q, deg, A)

        monkeypatch.setattr(classify, "substitution_matrix", recording)
        classify._canonicalize(p, 2, k_invariant(lens(p, 1, 2)).coeff_pair())
        assert walked == [A for A in gl2_elements(p) if next(x for x in A if x) == 1]
        assert len(walked) == count


def test_refusals_and_prunes_transport_nothing_and_marked_calls_transport_once(monkeypatch):
    calls = _record_transports(monkeypatch)
    X, Y = lens(37, 1, 2), lens(37, 2, 3)
    assert k_invariant(X) != k_invariant(Y)
    for decide in (homotopy_equivalent, homeomorphic):
        with pytest.raises(CapacityError):
            decide(X, Y)
    rng = random.Random(5)
    while True:
        X, Y = _random_free(rng, 13, 2), _random_free(rng, 13, 2)
        if _profile(X) != _profile(Y):
            break
    assert not homeomorphic(X, Y).equivalent
    assert calls == []
    # marked, far above the GL2 cap: the identity is the one transport
    p = 10007
    X = lens(p, 1, 2)
    Y = validate(RotationData(p, 2, (p - X.R[0],) + X.R[1:], (p - X.Q[0],) + X.Q[1:]))
    for decide in (homotopy_equivalent, homeomorphic):
        got = decide(X, Y, marked=True)
        assert got.equivalent and got.witness.B.det() == p - 1
        assert calls == [(p, (1, 0, 0, 1))]
        assert not decide(X, lens(p, 2, 3), marked=True).equivalent
        assert calls == [(p, (1, 0, 0, 1))] * 2
        calls.clear()
    rng = random.Random(5)
    while True:  # the recorder does see the transports of a walk
        X, Y = _random_free(rng, 13, 2), _random_free(rng, 13, 2)
        if _profile(X) == _profile(Y):
            break
    homotopy_equivalent(X, Y)
    assert calls and {q for q, _ in calls} == {13}


def test_walked_negatives_build_no_substitution_matrix():
    p = 13
    rng = random.Random(5)
    while True:
        X, Y = _random_free(rng, p, 2), _random_free(rng, p, 2)
        if _profile(X) == _profile(Y) and not homotopy_equivalent(X, Y).equivalent:
            break
    for (X, Y), checked in (((X, Y), None), (_cube_free_lens_negative(31), 1800)):
        for decide in (homotopy_equivalent, homeomorphic):
            classify._transported.cache_clear()
            substitution_matrix.cache_clear()
            got = decide(X, Y)
            assert substitution_matrix.cache_info().misses == 0
            assert not got.equivalent and got.checked_pairs > 0
            assert checked is None or got.checked_pairs == checked
    classify._transported.cache_clear()


def _negative_kind(X, Y):
    """'pruned' (profiles differ), 'no_span' (no A carries span k(X) onto
    span k(Y)) or 'no_mix' (some A does, with no det +-1 mix), per the
    oracle; None for a positive."""
    want = _oracle_decide(X, Y, LEVEL_HOMOTOPY)
    if want.equivalent:
        return None
    if _profile(X) != _profile(Y):
        return "pruned"
    return "no_mix" if want.checked_pairs else "no_span"


@pytest.mark.parametrize("p,n", [(5, 3), (7, 3)])
def test_every_kind_of_negative_matches_the_per_substitution_oracle(p, n):
    deciders = (
        (homotopy_equivalent, lambda X, Y, m: _oracle_decide(X, Y, LEVEL_HOMOTOPY, m)),
        (simple_homotopy_equivalent, lambda X, Y, m: _oracle_decide(X, Y, LEVEL_SIMPLE, m)),
        (homeomorphic, _oracle_homeomorphic),
    )
    rng = random.Random(30 * p + n)
    found = {"pruned": [], "no_span": [], "no_mix": []}
    try:
        while min(map(len, found.values())) < 2:
            X, Y = _random_free(rng, p, n), _random_free(rng, p, n)
            kind = _negative_kind(X, Y)
            if kind is not None and len(found[kind]) < 2:
                found[kind].append((X, Y))
        for kind, pairs in found.items():
            for X, Y in pairs:
                for decide, oracle in deciders:
                    for marked in (False, True):
                        got, want = decide(X, Y, marked), oracle(X, Y, marked)
                        assert got.to_json() == want.to_json(), (kind, X, Y, got.level, marked)
                kx, ky = k_invariant(X).coeff_pair(), k_invariant(Y).coeff_pair()
                assert _matching_substitutions(p, n, kx, ky) == _oracle_matching_substitutions(
                    p, n, kx, ky
                ), (kind, X, Y)
    finally:
        _oracle_transported.cache_clear()


# ---------------------------------------------------------------------------
# oracle: the whole-orbit BFS over generators of GL2 and of the det +-1 group
# that _canonicalize ran before the orbit became one pass over GL2.

def _primitive_root(p):
    """Smallest generator of GF(p)^x, by a direct scan."""
    return next(g for g in range(2, p) if len({pow(g, e, p) for e in range(1, p)}) == p - 1)


def _oracle_canonicalize(orbits, p, n, key):
    got = orbits.get(key)
    if got is not None:
        return got
    g = _primitive_root(p)
    a_gens = ((1, 1, 0, 1), (1, 0, 1, 1), (g, 0, 0, 1))  # generate GL2
    b_gens = ((1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 0))  # generate det +-1
    seen = {key: _IDENT}
    frontier = [key]
    while frontier:
        nxt = []
        for pair in frontier:
            a_part = seen[pair]
            c1, c2 = pair
            for a in a_gens:
                M = substitution_matrix(p, n, a)
                moved = (apply_matrix(M, c1, p), apply_matrix(M, c2, p))
                if moved not in seen:
                    seen[moved] = mat2_mul(a_part, a, p)
                    nxt.append(moved)
            for b in b_gens:
                mixed = (
                    tuple((b[0] * x + b[1] * y) % p for x, y in zip(c1, c2)),
                    tuple((b[2] * x + b[3] * y) % p for x, y in zip(c1, c2)),
                )
                if mixed not in seen:
                    seen[mixed] = a_part
                    nxt.append(mixed)
        frontier = nxt
    canon = min(seen)
    a_canon = seen[canon]
    for pair, a_part in seen.items():
        orbits[pair] = (canon, mat2_mul(mat2_inv(a_part, p), a_canon, p))
    return orbits[key]


def _carries(p, n, pair, a0, canon):
    """Some det +-1 mix takes pair, substituted by a0, onto canon."""
    M = substitution_matrix(p, n, a0)
    solve = _oracle_mix_solver(apply_matrix(M, pair[0], p), apply_matrix(M, pair[1], p), p)
    return any(
        (c * f - d * e) % p in (1, p - 1) for c, d in solve(canon[0]) for e, f in solve(canon[1])
    )


def _check_against_bfs(p, n, keys):
    oracle = {}
    for key in keys:
        classify._canonicalize(p, n, key)
        _oracle_canonicalize(oracle, p, n, key)
    cache = classify._ORBITS[(p, n)]
    assert cache.keys() == oracle.keys()
    for pair, (canon, a0, _) in cache.items():
        assert canon == oracle[pair][0], pair
        assert _carries(p, n, pair, a0, canon), pair


def test_canonicalize_matches_the_bfs_oracle_on_every_free_space_p3(monkeypatch):
    monkeypatch.setattr(classify, "_ORBITS", {})
    _check_against_bfs(3, 2, [k_pair(3, 2, d.R, d.Q) for d in enumerate_free(3, 2)])


@pytest.mark.parametrize("p,n,count", [(5, 2, 8), (7, 2, 1), (5, 3, 3)])
def test_canonicalize_matches_the_bfs_oracle_on_seeded_keys(monkeypatch, p, n, count):
    monkeypatch.setattr(classify, "_ORBITS", {})
    rng = random.Random(10 * p + n)
    _check_against_bfs(p, n, [k_invariant(_random_free(rng, p, n)).coeff_pair() for _ in range(count)])


def test_one_new_orbit_transports_once_per_pgl2_representative(monkeypatch):
    calls = []
    real = classify.apply_matrix

    def counting(M, vec, p):
        calls.append(None)
        return real(M, vec, p)

    monkeypatch.setattr(classify, "apply_matrix", counting)
    monkeypatch.setattr(classify, "_ORBITS", {})
    p, n = 5, 3
    key = k_invariant(_random_free(random.Random(53), p, n)).coeff_pair()
    canon, _, _ = classify._canonicalize(p, n, key)
    made = len(calls)
    assert made == 2 * p * (p * p - 1) == 240  # |GL2| = 480; the generator BFS made ~28,800
    classify._canonicalize(p, n, canon)
    assert len(calls) == made  # a cached orbit member transports nothing


# ---------------------------------------------------------------------------
# oracle: the union-of-B-orbits pass _canonicalize ran before one member ->
# substitution map replaced its seen set, B-orbit list and membership search.
# gl2_elements is the sorted GL2 that pass walked.

def _oracle_orbit_pass(orbits, p, n, key):
    got = orbits.get(key)
    if got is not None:
        return got
    x1, x2 = key
    gl2 = gl2_elements(p)
    mixes = [b for b in gl2 if (b[0] * b[3] - b[1] * b[2]) % p in (1, p - 1)]
    seen = set()
    b_orbits = []  # (A, the B-orbit of key.A)
    for A in gl2:
        M = substitution_matrix(p, n, A)
        u = apply_matrix(M, x1, p)
        v = apply_matrix(M, x2, p)
        if (u, v) in seen:
            continue
        lin = {
            (c, d): tuple((c * x + d * y) % p for x, y in zip(u, v))
            for c in range(p)
            for d in range(p)
        }
        members = {(lin[b[0], b[1]], lin[b[2], b[3]]) for b in mixes}
        seen |= members
        b_orbits.append((A, members))
    canon = min(seen)
    a_canon = next(A for A, members in b_orbits if canon in members)
    for A, members in b_orbits:
        entry = (canon, mat2_mul(mat2_inv(A, p), a_canon, p))
        for pair in members:
            orbits[pair] = entry
    return orbits[key]


def _check_against_orbit_pass(p, n, keys):
    oracle = {}
    for key in keys:
        assert classify._canonicalize(p, n, key)[:2] == _oracle_orbit_pass(oracle, p, n, key)
        canon = oracle[key][0]
        stabiliser = classify._canonicalize(p, n, canon)[2]
        assert classify._orbit_size(p, len(stabiliser)) == sum(
            e[0] == canon for e in oracle.values()
        )
    # same keys, canonical pairs and a0; test_class_record_is_whole checks Stab
    assert {pair: e[:2] for pair, e in classify._ORBITS[(p, n)].items()} == oracle


def test_canonicalize_matches_the_orbit_pass_on_every_free_space_p3(monkeypatch):
    monkeypatch.setattr(classify, "_ORBITS", {})
    _check_against_orbit_pass(3, 2, [k_pair(3, 2, d.R, d.Q) for d in enumerate_free(3, 2)])


def _seeded_keys(p, n, count, seed):
    rng = random.Random(seed)
    return [k_invariant(_random_free(rng, p, n)).coeff_pair() for _ in range(count)]


@pytest.mark.parametrize("p,n,count", [(5, 2, 8), (5, 3, 3), (7, 2, 4), (7, 3, 3), (11, 2, 1)])
def test_canonicalize_matches_the_orbit_pass_on_seeded_keys(monkeypatch, p, n, count):
    """At (7, 2) and (11, 2) p - 1 does not divide 4n, so some lam^2n is not
    +-1 and a scalar lam*A carries key into another B-orbit than A does."""
    monkeypatch.setattr(classify, "_ORBITS", {})
    _check_against_orbit_pass(p, n, _seeded_keys(p, n, count, 30 * p + n))


# ---------------------------------------------------------------------------
# oracle: the least member of the enumerated det +-1 orbit, against the
# closed form that keys the orbit pass

def _enumerated_b_orbit_min(p, u, v):
    lin = [tuple((c * x + d * y) % p for x, y in zip(u, v)) for c in range(p) for d in range(p)]
    return min(
        (lin[c * p + d], lin[e * p + f])
        for c, d, e, f in gl2_elements(p)
        if (c * f - d * e) % p in (1, p - 1)
    )


@pytest.mark.parametrize("p", [3, 5])
def test_b_orbit_min_is_the_enumerated_minimum_on_every_pair(p):
    vectors = list(itertools.product(range(p), repeat=3))
    pairs = [(u, v) for u in vectors for v in vectors if any(wedge(u, v, p))]
    assert len(pairs) == (p**3 - 1) * (p**3 - p)
    for u, v in pairs:
        assert classify._b_orbit_min(p, 2, u, v) == _enumerated_b_orbit_min(p, u, v), (u, v)


@pytest.mark.parametrize("p,n,count", [(7, 3, 200), (13, 2, 100), (31, 2, 10)])
def test_b_orbit_min_is_the_enumerated_minimum_on_seeded_pairs(p, n, count):
    rng = random.Random(100 * p + n)
    done = 0
    while done < count:
        u, v = (tuple(rng.randrange(p) for _ in range(n + 1)) for _ in range(2))
        if any(wedge(u, v, p)):
            assert classify._b_orbit_min(p, n, u, v) == _enumerated_b_orbit_min(p, u, v), (u, v)
            done += 1


class _CountingStore(dict):
    """An orbit store that counts the writes of each pair."""

    def __init__(self):
        super().__init__()
        self.writes = Counter()

    def __setitem__(self, pair, entry):
        self.writes[pair] += 1
        super().__setitem__(pair, entry)


@pytest.mark.parametrize(
    "p,n,seed,size", [(5, 2, 0, 2400), (5, 3, 0, 4800), (7, 2, 1, 56448), (7, 3, 2, 112896)]
)
def test_orbit_pass_writes_every_member_once(monkeypatch, p, n, seed, size):
    store = _CountingStore()
    monkeypatch.setattr(classify, "_ORBITS", {(p, n): store})
    key = _seeded_keys(p, n, 1, seed)[0]
    canon, _, _ = classify._canonicalize(p, n, key)
    stabiliser = _matching_substitutions(p, n, key, key)
    assert set(store.writes.values()) == {1}
    assert len(store) == classify._orbit_size(p, len(stabiliser)) == size
    assert min(store) == canon
    assert {e[0] for e in store.values()} == {canon}


@pytest.mark.parametrize("p,n,count", [(5, 2, 12), (7, 2, 6), (5, 3, 6), (7, 3, 3)])
def test_recorded_self_witnesses_match_the_walk_on_the_canonical_form(monkeypatch, p, n, count):
    """Stab(canon) = a0^-1 * Stab(key) * a0, sorted, is the list the walk
    finds on the canonical pair itself, in the same row-major order."""
    monkeypatch.setattr(classify, "_ORBITS", {})
    for key in _seeded_keys(p, n, count, 70 * p + n):
        canon, _, stab = classify._canonicalize(p, n, key)
        assert stab == _matching_substitutions(p, n, canon, canon)


def _count_walks(monkeypatch):
    walks = []
    real = classify._span_matches

    def counting(*args, **kwargs):
        walks.append(args[2:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(classify, "_span_matches", counting)
    return walks


def test_one_walk_per_orbit_built(monkeypatch):
    """A sampled census walks once per homotopy class it builds, and a
    canonical_form miss once; a hit walks not at all."""
    monkeypatch.setattr(classify, "_ORBITS", {})
    census._classify_wedge.cache_clear()
    census._classify_plane.cache_clear()
    census._min_fingerprint.cache_clear()
    walks = _count_walks(monkeypatch)
    rec = census.run_census(5, 3, sample=3000, seed=0)
    built = {entry[0] for entry in classify._ORBITS[(5, 3)].values()}
    assert len(walks) == len(built) == rec.homotopy_classes == 10
    walks.clear()
    X = _random_free(random.Random(72), 7, 2)
    canonical_form(X)
    assert walks == [(k_pair(7, 2, X.R, X.Q),) * 2]
    canonical_form(X)
    assert len(walks) == 1


def test_class_record_is_whole(monkeypatch):
    """After the census 5 2 (4 classes) and the seed-0 sample at (5, 3) (10
    classes), every stored member of a class carries one and the same Stab
    tuple, the walk's own list on the canonical pair, whose orbit size is
    the number of members stored with that canonical pair."""
    monkeypatch.setattr(classify, "_ORBITS", {})
    census._classify_wedge.cache_clear()
    census._classify_plane.cache_clear()
    census._min_fingerprint.cache_clear()
    for (p, n), rec, classes in [
        ((5, 2), census.run_census(5, 2), 4),
        ((5, 3), census.run_census(5, 3, sample=3000, seed=0), 10),
    ]:
        assert rec.homotopy_classes == classes
        stabs = {}
        members = Counter()
        for canon, _, stab in classify._ORBITS[(p, n)].values():
            assert stabs.setdefault(canon, stab) is stab, canon
            members[canon] += 1
        assert len(stabs) == classes
        for canon, stab in stabs.items():
            assert stab == _matching_substitutions(p, n, canon, canon), canon
            assert classify._orbit_size(p, len(stab)) == members[canon], canon

def test_orbit_cap_admits_p13_and_refuses_larger_orbits():
    """Sizing walks only: every seeded (13, 2) orbit fits under the cap, and
    seeded (11, 3) and (17, 2) orbits do not."""
    cap = classify.ORBIT_SIZE_CAP

    def size(p, n, key):
        return classify._orbit_size(p, len(_matching_substitutions(p, n, key, key)))

    assert max(size(13, 2, k) for k in _seeded_keys(13, 2, 200, 13)) <= cap
    for p, n in [(11, 3), (17, 2)]:
        assert min(size(p, n, k) for k in _seeded_keys(p, n, 5, p)) > cap


def test_canonical_form_refuses_an_oversized_orbit_before_building_it(monkeypatch):
    def forbidden(*args):
        raise AssertionError("orbit built before the refusal")

    monkeypatch.setattr(classify, "substitution_matrix", forbidden)
    monkeypatch.setattr(classify, "_ORBITS", {})
    X = _random_free(random.Random(17), 17, 2)
    with pytest.raises(CapacityError):
        canonical_form(X)
    assert classify._ORBITS == {}
