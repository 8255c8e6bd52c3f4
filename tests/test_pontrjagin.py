import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import free_space_strategy
from lenspp.actions import RotationData, product_of_lens_spaces, validate
from lenspp.errors import InvalidRotation
from lenspp.forms import k_invariant
from lenspp.pontrjagin import (
    lens_total_pontrjagin,
    pontrjagin_coeffs,
    total_pontrjagin,
    total_pontrjagin_raw,
)
from lenspp.quotient_ring import ring_model


def test_standard_product_class_vanishes():
    d = validate(RotationData(5, 2, (1, 1, 0, 0), (0, 0, 1, 1)))
    assert total_pontrjagin(d).is_trivial()


def test_raw_h4_component_example():
    """(1+4)a^2 + (1+9)b^2 = 5a^2 + 3b^2 mod 7, then 0 in the quotient."""
    d = validate(RotationData(7, 2, (1, 2, 0, 0), (0, 0, 1, 3)))
    raw = total_pontrjagin_raw(d)
    assert raw[4].coeffs == (5, 0, 3)
    assert total_pontrjagin(d).is_trivial()


def test_raw_keeps_only_degrees_up_to_truncation():
    d = validate(RotationData(7, 2, (1, 2, 3, 4), (1, 1, 1, 1)))
    raw = total_pontrjagin_raw(d)
    assert set(raw) == {4}
    assert raw[4].deg == 2
    # degree-0 term of the product formula is the implicit 1, never stored
    assert 0 not in raw


def test_reduced_class_nontrivial_example():
    d = validate(RotationData(7, 2, (1, 2, 3, 4), (1, 1, 1, 1)))
    cls = total_pontrjagin(d)
    assert cls.component(4).coeffs == (0, 0, 1)
    assert not cls.is_trivial()


def test_model_accepts_rescaled_generators():
    # (2a^2, 3b^2) spans the same ideal as (a^2, b^2), so the two ring
    # models reduce every form alike
    d = validate(RotationData(5, 2, (1, 1, 0, 0), (0, 0, 1, 1)))
    other = validate(RotationData(5, 2, (1, 2, 0, 0), (0, 0, 1, 3)))
    m = ring_model(5, 2, k_invariant(d).coeff_pair())
    m_other = ring_model(5, 2, k_invariant(other).coeff_pair())
    assert m.f != m_other.f and m.g != m_other.g
    for deg in range(4):
        for coeffs in itertools.product(range(5), repeat=deg + 1):
            assert m.reduce_coeffs(coeffs) == m_other.reduce_coeffs(coeffs)
    # so d's class, trivial in its own ring, is trivial in other's
    for c in pontrjagin_coeffs(5, d.rotation_pairs(), 1):
        assert not any(m_other.reduce_coeffs(c))


def test_lens_class_examples():
    # 3-dimensional lens spaces carry no positive-degree class
    for r in range(1, 7):
        assert lens_total_pontrjagin(7, (1, r)).is_trivial()
    cls = lens_total_pontrjagin(5, (1, 1, 1))
    assert [(deg, f.coeffs) for deg, f in cls.components] == [(4, (3, 0, 0))]


def test_lens_class_rejects_zero_rotation():
    with pytest.raises(InvalidRotation):
        lens_total_pontrjagin(5, (1, 0))


def test_lens_empty_product_is_trivial():
    assert lens_total_pontrjagin(5, ()).is_trivial()


def test_multiplicativity_over_factors():
    """The quotient class of a lens product is the product of the factor
    classes under the block identification, reduced in the model."""
    p = 7
    for r in itertools.product(range(1, p), repeat=2):
        d = product_of_lens_spaces(p, r, (1, 1))
        raw = total_pontrjagin_raw(d)
        # with n=2 the only stored degree is 4 and both factor classes are
        # trivial there, so the raw H^4 piece is the sum of the factor pieces
        f1 = lens_total_pontrjagin(p, r)
        f2 = lens_total_pontrjagin(p, (1, 1))
        expect_a = f1.component(4).coeffs[0] if f1.components else 0
        expect_b = f2.component(4).coeffs[0] if f2.components else 0
        # lens truncation kills degree 4 at n=2, so the product model must
        # also reduce the H^4 piece to zero
        assert expect_a == 0 and expect_b == 0
        assert total_pontrjagin(d).is_trivial()
        # raw piece is sum of squares of the diagonal rotation classes
        want = (
            sum(x * x for x in r) % p,
            0,
            (1 + 1) % p,
        )
        assert raw[4].coeffs == want


@settings(max_examples=120, deadline=None)
@given(free_space_strategy(5))
def test_raw_class_invariant_under_pair_sign_flips(d):
    p, n = d.p, d.n
    raw = total_pontrjagin_raw(d)
    R2 = tuple((-r) % p for r in d.R[:1]) + d.R[1:]
    Q2 = tuple((-q) % p for q in d.Q[:1]) + d.Q[1:]
    d2 = RotationData(p, n, R2, Q2)
    assert total_pontrjagin_raw(d2) == raw


@settings(max_examples=120, deadline=None)
@given(free_space_strategy(5))
def test_raw_class_invariant_under_block_permutation(d):
    p, n = d.p, d.n
    perm = lambda v: (v[1], v[0]) + v[2:]
    d2 = RotationData(p, n, perm(d.R), perm(d.Q))
    assert total_pontrjagin_raw(d2) == total_pontrjagin_raw(d)


def _graded_product_of_one_plus_squares(p, squares, truncation):
    """prod (1 + s) over degree-2 coefficient vectors s, expanded by degree
    and truncated at polynomial degree `truncation`: {degree: coeffs}."""
    comps = {0: [1]}
    for sq in squares:
        out = {}
        for d, coeffs in comps.items():
            cur = out.setdefault(d, [0] * (d + 1))
            for k, c in enumerate(coeffs):
                cur[k] = (cur[k] + c) % p
            if d + 2 <= truncation:
                cur2 = out.setdefault(d + 2, [0] * (d + 3))
                for k, c in enumerate(coeffs):
                    if c:
                        for t, s in enumerate(sq):
                            cur2[k + t] = (cur2[k + t] + c * s) % p
        comps = out
    return {d: tuple(coeffs) for d, coeffs in comps.items()}


def _squares(p, pairs):
    return [(r * r % p, 2 * r * q % p, q * q % p) for r, q in pairs]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_pontrjagin_coeffs_match_graded_expansion(p):
    rng = random.Random(p)
    for _ in range(300):
        pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(rng.randrange(9))]
        top = rng.randrange(6)
        for truncation in (2 * top, 2 * top + 1):
            graded = _graded_product_of_one_plus_squares(p, _squares(p, pairs), truncation)
            expect = [graded.get(2 * k, (0,) * (2 * k + 1)) for k in range(1, top + 1)]
            assert pontrjagin_coeffs(p, pairs, top) == expect


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(5, 2), (7, 3), (11, 4)]).flatmap(lambda pn: free_space_strategy(*pn)))
def test_raw_class_matches_graded_expansion(d):
    graded = _graded_product_of_one_plus_squares(d.p, _squares(d.p, d.rotation_pairs()), 2 * d.n - 1)
    assert {deg: f.coeffs for deg, f in total_pontrjagin_raw(d).items()} == {
        2 * deg: c for deg, c in graded.items() if deg > 0
    }


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_lens_class_matches_graded_expansion(p):
    rng = random.Random(p)
    for m in range(0, 9):
        rotations = [rng.randrange(1, p) for _ in range(m)]
        truncation = max(m - 1, 0)
        graded = _graded_product_of_one_plus_squares(
            p, [(r * r % p, 0, 0) for r in rotations], truncation
        )
        cls = lens_total_pontrjagin(p, rotations)
        assert cls.truncation == truncation
        assert tuple((deg, f.coeffs) for deg, f in cls.components) == tuple(
            (2 * deg, c) for deg, c in sorted(graded.items()) if deg > 0
        )
