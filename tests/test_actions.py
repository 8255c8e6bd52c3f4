import itertools
import random
import sys
import time

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


@pytest.mark.parametrize("R, Q", [((1, 0, 0, 0), (0, 0, 1, 1.5)), ((1, 0, 0, "2"), (0, 0, 1, 1))])
def test_validate_refuses_non_integer_entries(R, Q):
    """int() would truncate 1.5 to 1, a different space."""
    with pytest.raises(InvalidRotation, match="entries must be integers"):
        validate(RotationData(5, 2, R, Q))


def test_validate_rejects_dependent_rows():
    with pytest.raises(InvalidSpan):
        validate(RotationData(5, 2, (1, 2, 0, 0), (2, 4, 0, 0)))


@pytest.mark.parametrize("p, n", [(5, 2), (7, 2), (5, 3), (7, 3), (1_000_000_007, 2)])
def test_validate_rank_test_agrees_with_the_rref_oracle_on_unreduced_entries(p, n):
    """Entries drawn from [-2p, 2p), so negative and >= p, with Q a shifted
    multiple of R in a third of the pairs: validate accepts exactly the
    pairs whose rref has two nonzero rows, reduces what it accepts, and
    gives the reduced entries the same verdict (its rank test needs them
    reduced, and reduces first)."""
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
        reduced = RotationData(p, n, tuple(x % p for x in R), tuple(x % p for x in Q))
        if len(span_key([R, Q], p)) == 2:
            d = validate(RotationData(p, n, R, Q))
            assert d == validate(reduced) == reduced
            accepted += 1
        else:
            for raw in (RotationData(p, n, R, Q), reduced):
                with pytest.raises(InvalidSpan):
                    validate(raw)
            refused += 1
    assert accepted and refused


def _cache_sizes():
    """currsize of every lru_cache in the loaded lenspp modules."""
    return {
        f"{name}.{attr}": fn.cache_info().currsize
        for name, module in list(sys.modules.items())
        if name == "lenspp" or name.startswith("lenspp.")
        for attr, fn in vars(module).items()
        if hasattr(fn, "cache_info")
    }


def test_validate_at_a_billion_answers_at_once():
    """validate's rank test is one pass over the columns, O(n) whatever p is,
    and keeps nothing: a free pair, a rank-1 pair and 100 unreduced rank-1
    pairs at p = 1,000,000,007 are decided within a second, and no lenspp
    cache changes size."""
    p, R = 1_000_000_007, (1, 2, 0, 0)
    before = _cache_sizes()
    assert "lenspp.census._classify_wedge" in before
    start = time.process_time()
    assert validate(RotationData(p, 2, R, (0, 0, 1, 3))).R == R
    with pytest.raises(InvalidSpan):
        validate(RotationData(p, 2, R, (2, 4, 0, 0)))
    for c in range(3, 103):
        with pytest.raises(InvalidSpan):
            validate(RotationData(p, 2, R, (c, 2 * c - p, 0, p)))
    assert time.process_time() - start < 1
    assert _cache_sizes() == before


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
    with pytest.raises(InvalidRotation, match="entries must be integers"):
        product_of_lens_spaces(5, (1, 2.5), (1, 1))


@pytest.mark.parametrize("r, rprime", [((1,), (1,)), ((), ()), ((1, 2), (1,)), ((1, 2), (1, 2, 3))])
def test_product_of_lens_spaces_rejects_bad_block_lengths(r, rprime):
    with pytest.raises(InvalidDimension, match=r"need len\(r\) = len\(rprime\) = n >= 2"):
        product_of_lens_spaces(5, r, rprime)


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (5, 3), (7, 2)])
def test_product_of_lens_spaces_is_already_validated(p, n):
    """product_of_lens_spaces builds its data without validate: the entries
    are reduced and the unit blocks sit in disjoint columns, so validate
    returns the same data, also from unreduced and negative inputs."""
    rng = random.Random(p * 10 + n)
    for _ in range(50):
        r = tuple(rng.choice([-1, 1]) * (rng.randrange(1, p) + p * rng.randrange(3)) for _ in range(n))
        rp = tuple(rng.choice([-1, 1]) * (rng.randrange(1, p) + p * rng.randrange(3)) for _ in range(n))
        d = product_of_lens_spaces(p, r, rp)
        assert validate(d) == d
        assert d == validate(RotationData(p, n, r + (0,) * n, (0,) * n + rp)), (r, rp)


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
