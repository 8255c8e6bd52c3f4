import itertools
import random

import pytest
from hypothesis import given, settings

from lenspp.actions import (
    FreenessReport,
    RotationData,
    from_json,
    is_free,
    is_free_plane_form,
    product_of_lens_spaces,
    to_json,
    validate,
)
from lenspp.errors import (
    InvalidDimension,
    InvalidPrime,
    InvalidRotation,
    InvalidSpan,
)
from conftest import free_space_strategy, gl2_elements, span_key


def test_validate_accepts_independent_rows():
    d = validate(RotationData(5, 2, (1, 2, 0, 0), (0, 0, 1, 3)))
    assert d.R == (1, 2, 0, 0)
    assert d.Q == (0, 0, 1, 3)


def test_validate_reduces_entries():
    d = validate(RotationData(5, 2, (6, -3, 0, 0), (0, 0, 1, 3)))
    assert d.R == (1, 2, 0, 0)


def test_validate_rejects_dependent_rows():
    with pytest.raises(InvalidSpan):
        validate(RotationData(5, 2, (1, 2, 0, 0), (2, 4, 0, 0)))


@pytest.mark.parametrize("p, n", [(5, 2), (7, 2), (5, 3), (7, 3)])
def test_validate_rank_test_agrees_with_the_rref_oracle_on_unreduced_entries(p, n):
    """Entries drawn from [-2p, 2p), so negative and >= p, with Q a shifted
    multiple of R in a third of the pairs: validate accepts exactly the
    pairs whose rref has two nonzero rows, and reduces what it accepts."""
    rng = random.Random(1000 * p + n)
    m = 2 * n
    accepted = refused = 0
    for trial in range(600):
        R = tuple(rng.randrange(-2 * p, 2 * p) for _ in range(m))
        if trial % 3:
            Q = tuple(rng.randrange(-2 * p, 2 * p) for _ in range(m))
        else:
            c = rng.randrange(p)
            Q = tuple(c * x + p * rng.randrange(-2, 2) for x in R)
        if len(span_key([R, Q], p)) == 2:
            d = validate(RotationData(p, n, R, Q))
            assert (d.R, d.Q) == (tuple(x % p for x in R), tuple(x % p for x in Q))
            accepted += 1
        else:
            with pytest.raises(InvalidSpan):
                validate(RotationData(p, n, R, Q))
            refused += 1
    assert accepted and refused


def test_validate_rejects_small_n():
    with pytest.raises(InvalidDimension):
        validate(RotationData(5, 1, (1, 2), (0, 1)))


def test_validate_rejects_bad_prime():
    with pytest.raises(InvalidPrime):
        validate(RotationData(4, 2, (1, 0, 0, 0), (0, 1, 0, 0)))


def test_validate_rejects_wrong_length():
    with pytest.raises(InvalidDimension):
        validate(RotationData(5, 2, (1, 0, 0), (0, 1, 0)))


def test_is_free_product_example():
    d = validate(RotationData(5, 2, (1, 2, 0, 0), (0, 0, 1, 3)))
    assert is_free(d).free


def test_is_free_witness_example():
    d = validate(RotationData(5, 2, (1, 0, 1, 0), (0, 1, 0, 1)))
    report = is_free(d)
    assert not report.free
    assert report.violating_element == (1, 0)
    assert report.violating_pair == (2, 2)


def test_is_free_p7():
    d = validate(RotationData(7, 2, (1, 1, 0, 0), (0, 0, 1, 1)))
    assert is_free(d).free


def test_freeness_report_shape():
    d = validate(RotationData(5, 2, (1, 1, 0, 0), (0, 0, 1, 1)))
    report = is_free(d)
    assert report.free
    assert report.violating_element is None
    assert report.violating_pair is None
    assert report.to_json() == {
        "free": True,
        "violating_element": None,
        "violating_pair": None,
    }


def test_witness_is_a_genuine_violation():
    d = validate(RotationData(5, 2, (1, 0, 1, 0), (0, 1, 0, 1)))
    report = is_free(d)
    g1, g2 = report.violating_element
    i, j = report.violating_pair
    p, n = d.p, d.n
    assert (g1 * d.R[i - 1] + g2 * d.Q[i - 1]) % p == 0
    assert (g1 * d.R[n + j - 1] + g2 * d.Q[n + j - 1]) % p == 0


def test_plane_form_matches_on_fixed_examples():
    for p, R, Q, expected in [
        (5, (1, 2, 0, 0), (0, 0, 1, 3), True),
        (5, (1, 0, 1, 0), (0, 1, 0, 1), False),
        (3, (1, 1, 0, 0), (0, 0, 1, 1), True),
        (7, (1, 1, 0, 0), (0, 0, 1, 1), True),
    ]:
        d = validate(RotationData(p, 2, R, Q))
        assert is_free_plane_form(d) == expected
        assert is_free(d).free == expected


def test_product_of_lens_spaces_layout():
    d = product_of_lens_spaces(5, (1, 1), (1, 1))
    assert (d.R, d.Q) == ((1, 1, 0, 0), (0, 0, 1, 1))
    d = product_of_lens_spaces(7, (1, 2), (1, 3))
    assert (d.R, d.Q) == ((1, 2, 0, 0), (0, 0, 1, 3))


def test_product_of_lens_spaces_always_free():
    for p in (3, 5, 7):
        for r1, r2, q1, q2 in itertools.product(range(1, p), repeat=4):
            d = product_of_lens_spaces(p, (r1, r2), (q1, q2))
            assert is_free_plane_form(d)


def test_product_of_lens_spaces_rejects_zero_rotation():
    with pytest.raises(InvalidRotation):
        product_of_lens_spaces(5, (1, 0), (1, 1))


def test_json_roundtrip():
    d = validate(RotationData(5, 2, (1, 2, 0, 0), (0, 0, 1, 3)))
    assert from_json(to_json(d)) == d
    assert from_json({"p": 5, "n": 2, "R": [6, 7, 0, 0], "Q": [0, 0, 1, 3]}) == d


def test_freeness_scan_matches_plane_form_exhaustive_p3():
    """Scan formulation vs plane formulation over every raw pair at p=3."""
    p, n = 3, 2
    agree = 0
    for R in itertools.product(range(p), repeat=2 * n):
        for Q in itertools.product(range(p), repeat=2 * n):
            try:
                d = validate(RotationData(p, n, R, Q))
            except (InvalidSpan, InvalidDimension):
                continue
            assert is_free(d).free == is_free_plane_form(d)
            agree += 1
    assert agree == 6240


@settings(max_examples=150, deadline=None)
@given(free_space_strategy(5))
def test_freeness_invariant_under_group_basis_change(d):
    """Replacing (R, Q) by another basis of the same plane preserves freeness."""
    p, n = d.p, d.n
    for a, b, c, e in gl2_elements(p)[:12]:
        R2 = tuple((a * r + b * q) % p for r, q in zip(d.R, d.Q))
        Q2 = tuple((c * r + e * q) % p for r, q in zip(d.R, d.Q))
        d2 = validate(RotationData(p, n, R2, Q2))
        assert is_free(d2).free


@settings(max_examples=150, deadline=None)
@given(free_space_strategy(5))
def test_freeness_invariant_under_block_permutations(d):
    p, n = d.p, d.n
    # swap the two sphere blocks
    swap = lambda v: v[n:] + v[:n]
    assert is_free(validate(RotationData(p, n, swap(d.R), swap(d.Q)))).free
    # reverse coordinates inside each block
    rev = lambda v: v[:n][::-1] + v[n:][::-1]
    assert is_free(validate(RotationData(p, n, rev(d.R), rev(d.Q)))).free


def _scan_is_free(data: RotationData) -> FreenessReport:
    """The element scan is_free reports as: every nontrivial (g1, g2), g1
    fastest, first column of each block it rotates trivially."""
    p, n, R, Q = data.p, data.n, data.R, data.Q
    for g2 in range(p):
        for g1 in range(p):
            if g1 == 0 and g2 == 0:
                continue
            zero = [(g1 * r + g2 * q) % p == 0 for r, q in zip(R, Q)]
            if any(zero[:n]) and any(zero[n:]):
                return FreenessReport(False, (g1, g2), (zero.index(True) + 1, zero.index(True, n) - n + 1))
    return FreenessReport(True, None, None)


def test_is_free_matches_element_scan_exhaustive_p3():
    """Every raw pair at p=3, n=2, zero columns and rank < 2 included."""
    p, n = 3, 2
    vectors = list(itertools.product(range(p), repeat=2 * n))
    for R in vectors:
        for Q in vectors:
            d = RotationData(p, n, R, Q)
            assert is_free(d) == _scan_is_free(d), (R, Q)


@pytest.mark.parametrize("p,n", [(5, 2), (7, 3), (11, 2), (13, 3)])
def test_is_free_matches_element_scan_random(p, n):
    rng = random.Random(p * 100 + n)
    violations = 0
    for _ in range(20_000):
        # zeros are drawn often so that zero columns and singular blocks show up
        draw = lambda: tuple(0 if rng.random() < 0.3 else rng.randrange(p) for _ in range(2 * n))
        d = RotationData(p, n, draw(), draw())
        report = is_free(d)
        assert report == _scan_is_free(d), (d.R, d.Q)
        violations += not report.free
    assert 0 < violations < 20_000


def test_is_free_is_linear_in_p():
    """A prime far beyond any element scan answers at once."""
    assert is_free(product_of_lens_spaces(100003, (1, 1), (1, 2))).free
    d = RotationData(100003, 2, (1, 0, 0, 5), (0, 1, 7, 0))
    assert is_free(d) == FreenessReport(False, (1, 0), (2, 1))


@pytest.mark.parametrize(
    "obj",
    [
        {"p": "5", "n": 2, "R": [1, 1, 0, 0], "Q": [0, 0, 1, 1]},
        {"p": 5.0, "n": 2, "R": [1, 1, 0, 0], "Q": [0, 0, 1, 1]},
        {"p": 5, "n": True, "R": [1, 1, 0, 0], "Q": [0, 0, 1, 1]},
        {"p": 5, "n": 2, "R": [1, 1, 0, 0], "Q": "0011"},
        {"p": 5, "n": 2, "R": [1, 1.0, 0, 0], "Q": [0, 0, 1, 1]},
        {"p": 5, "n": 2, "R": [1, 1, 0, 0], "Q": [0, 0, [1], 1]},
        {"p": 5, "n": 2, "R": [1, 1, 0, 0], "Q": [0, 0, 1, False]},
        {"p": 5, "n": 2, "R": [1, 1, 0, 0]},
        [5, 2, [1, 1, 0, 0], [0, 0, 1, 1]],
    ],
)
def test_from_json_rejects_non_integer_fields(obj):
    with pytest.raises(ValueError):
        from_json(obj)
