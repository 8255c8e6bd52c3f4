import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import free_space_strategy
from lenspp.actions import RotationData, product_of_lens_spaces, validate
from lenspp import classify
from lenspp.classify import (
    LEVEL_HOMEO,
    LEVEL_HOMOTOPY,
    LEVEL_SIMPLE,
    EquivalenceWitness,
    Verdict,
    _matching_substitutions,
    _mix_solver,
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
    InvalidRotation,
)
from lenspp.forms import (
    HomogeneousForm,
    apply_matrix,
    k_invariant,
    substitute,
    substitution_matrix,
)
from lenspp.gfp import Mat2, gl2_tuples, inv, is_quadratic_residue, span_key
from lenspp.pontrjagin import total_pontrjagin, total_pontrjagin_raw
from lenspp.quotient_ring import build_model


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


def test_hypothesis_guard():
    X = product_of_lens_spaces(3, (1, 1), (1, 1))
    with pytest.raises(HypothesisViolation):
        homotopy_equivalent(X, X)


def test_freeness_guard():
    X = validate(RotationData(5, 2, (1, 0, 1, 0), (0, 1, 0, 1)))
    with pytest.raises(InvalidRotation):
        homotopy_equivalent(X, X)
    with pytest.raises(InvalidRotation):
        homeomorphic(X, X)


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
    with pytest.raises(CapacityError):
        lens_simple_homotopy_equivalent(5, 9, (1,) * 9, (1,) * 9)


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
# oracle: the per-substitution GL2 scan the deciders ran before the span test
# was shared across scalar classes.  Every A gets its own transport and its
# own validated rref.

_IDENT = (1, 0, 0, 1)


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
    substitutions = (_IDENT,) if marked else gl2_tuples(p)
    class_ok = {}
    for A in substitutions:
        u, v, sk = _oracle_transported(p, n, A, x1, x2)
        if sk != target_span:
            continue
        solve = _mix_solver(u, v, p)
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
    model_y = build_model(k_invariant(Y), p, X.n)
    cls_x = total_pontrjagin_raw(X)
    cls_y = total_pontrjagin(Y, model_y)
    degrees = sorted(set(cls_x) | {deg for deg, _ in cls_y.components})

    def class_check(A_entries):
        A = Mat2(p, A_entries)
        for degree in degrees:
            fx = cls_x.get(degree)
            if fx is None:
                fx = HomogeneousForm(p, (0,) * (degree // 2 + 1))
            moved = substitute(fx, A)
            if not model_y.reduce(moved - cls_y.component(degree)).is_zero():
                return False
        return True

    return _oracle_decide(X, Y, LEVEL_HOMEO, marked, class_check)


def _oracle_matching_substitutions(p, n, kx_pair, ky_pair):
    x1, x2 = kx_pair
    y1, y2 = ky_pair
    target_span = span_key([y1, y2], p)
    found = []
    for A in gl2_tuples(p):
        u, v, sk = _oracle_transported(p, n, A, x1, x2)
        if sk != target_span:
            continue
        solve = _mix_solver(u, v, p)
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
