import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gl2_elements, span_key
from lenspp.errors import CapacityError, InvalidPrime
from lenspp.gfp import (
    Mat2,
    inv,
    is_odd_prime,
    MR_EXACT_BOUND,
    is_quadratic_residue,
    mat2_inv,
    mat2_mul,
    pgl2_rows,
    require_odd_prime,
    rref_with_pivots,
    wedge,
    wedge_pairs,
    wedge_span_key,
)


def test_is_odd_prime():
    assert [q for q in range(2, 32) if is_odd_prime(q)] == [
        3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
    ]
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)


def _trial_division_odd_prime(p):
    return p >= 3 and p % 2 == 1 and all(p % d for d in range(3, int(p**0.5) + 1, 2))


def test_miller_rabin_matches_trial_division_below_1e5():
    assert [q for q in range(100_000) if is_odd_prime(q)] == [
        q for q in range(100_000) if _trial_division_odd_prime(q)
    ]


def test_miller_rabin_large_known_values():
    assert is_odd_prime(2**61 - 1)
    assert is_odd_prime(2**31 - 1)
    assert not is_odd_prime(2**61 + 1)
    assert not is_odd_prime((2**31 - 1) * (2**19 - 1))
    # Carmichael numbers and a strong pseudoprime to bases 2, 3, 5, 7
    for composite in (561, 1105, 41041, 3_215_031_751):
        assert not is_odd_prime(composite)
    # the least strong pseudoprime to every prime base through 37: the base 41
    # is what decides it
    assert not is_odd_prime(318_665_857_834_031_151_167_461)


def test_miller_rabin_refuses_past_its_exact_range():
    with pytest.raises(CapacityError):
        is_odd_prime(2**89 - 1)  # prime, but above the bound
    with pytest.raises(CapacityError):
        require_odd_prime(MR_EXACT_BOUND)
    assert not is_odd_prime(2**90)  # even numbers need no test
    assert not is_odd_prime(3 * (2**89 - 1))  # nor multiples of a base


def test_require_odd_prime_rejects():
    for bad in (2, 4, 9, 0, -5):
        with pytest.raises(InvalidPrime):
            require_odd_prime(bad)


def test_inverse_example():
    # 4 * 2 = 8 = 1 mod 7
    assert inv(4, 7) == 2


def test_inverse_exhaustive_small_fields():
    for p in (3, 5, 7, 11, 13):
        for x in range(1, p):
            assert x * inv(x, p) % p == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        inv(0, 5)


def test_quadratic_residue_sets():
    assert {x for x in range(1, 5) if is_quadratic_residue(x, 5)} == {1, 4}
    assert {x for x in range(1, 7) if is_quadratic_residue(x, 7)} == {1, 2, 4}


def test_quadratic_residue_examples():
    assert is_quadratic_residue(2, 7)
    assert not is_quadratic_residue(3, 7)


def test_euler_criterion_agrees_with_scan():
    for p in (3, 5, 7, 11, 13, 17):
        scanned = {t * t % p for t in range(1, p)}
        for x in range(1, p):
            assert is_quadratic_residue(x, p) == (x in scanned)
        assert len(scanned) == (p - 1) // 2


def test_quadratic_residue_rejects_zero():
    with pytest.raises(ValueError):
        is_quadratic_residue(0, 5)


def _scalar_multiples(p):
    """lam * A for every PGL2 representative A and unit lam, in table order."""
    return [
        tuple(lam * x % p for x in A) for _, reps in pgl2_rows(p) for A in reps for lam in range(1, p)
    ]


def _det_pm1(elements, p):
    return [e for e in elements if (e[0] * e[3] - e[1] * e[2]) % p in (1, p - 1)]


def test_gl2_counts():
    assert [len(_scalar_multiples(p)) for p in (3, 5, 7)] == [48, 480, 2016]
    assert [len(_det_pm1(_scalar_multiples(p), p)) for p in (5, 7)] == [240, 672]


def test_gl2_enumeration_is_row_major_and_exact():
    """pgl2_rows at p = 3, 5, 7: p(p^2 - 1) members, first nonzero entry 1,
    grouped by first row; groups and members in row-major order.  Their
    scalar multiples are exactly GL2, each element once."""
    for p in (3, 5, 7):
        groups = pgl2_rows(p)
        rows = [row for row, _ in groups]
        assert rows == sorted(rows) == [(0, 1)] + [(1, b) for b in range(p)]
        members = [A for _, reps in groups for A in reps]
        assert len(members) == p * (p * p - 1)
        assert members == sorted(members)
        for row, reps in groups:
            assert reps and all(A[:2] == row for A in reps)
        multiples = _scalar_multiples(p)
        assert len(set(multiples)) == len(multiples)
        assert sorted(multiples) == list(gl2_elements(p))


def test_gl2_pm_subset():
    """The det +-1 scalar multiples are the det +-1 subgroup of GL2."""
    for p in (5, 7):
        pm = _det_pm1(_scalar_multiples(p), p)
        assert sorted(pm) == _det_pm1(gl2_elements(p), p)


def test_gl2_capacity_guard():
    with pytest.raises(CapacityError):
        pgl2_rows(37)


def test_mat2_inverse_roundtrip_exhaustive_p3():
    ident = Mat2.identity(3)
    for m in (Mat2(3, e) for e in gl2_elements(3)):
        assert m * m.inverse() == ident
        assert m.inverse() * m == ident


def test_mat2_wraps_the_tuple_kernel_exhaustive_p3():
    """Mat2's product and inverse are the tuple kernel's, entry for entry,
    checked against the textbook formulas."""
    p = 3
    for a in gl2_elements(p):
        det = (a[0] * a[3] - a[1] * a[2]) % p
        s = inv(det, p)
        assert mat2_inv(a, p) == Mat2(p, (a[3] * s, -a[1] * s, -a[2] * s, a[0] * s)).entries
        assert Mat2(p, a).inverse().entries == mat2_inv(a, p)
        for b in gl2_elements(p):
            prod = mat2_mul(a, b, p)
            assert prod == tuple(
                sum(a[2 * i + k] * b[2 * k + j] for k in range(2)) % p
                for i in range(2)
                for j in range(2)
            )
            assert (Mat2(p, a) * Mat2(p, b)).entries == prod


def test_mat2_inverse_of_singular_rejected():
    with pytest.raises(ZeroDivisionError):
        mat2_inv((1, 2, 2, 4), 5)
    with pytest.raises(ZeroDivisionError):
        Mat2(5, (1, 2, 2, 4)).inverse()


def test_mat2_normalizes_entries():
    m = Mat2(5, (6, -1, 10, 3))
    assert m.entries == (1, 4, 0, 3)


def test_rref_examples():
    assert rref_with_pivots([[0, 0], [0, 0]], 5)[0] == ((0, 0), (0, 0))
    assert rref_with_pivots([[1, 0], [0, 1]], 5)[0] == ((1, 0), (0, 1))
    assert rref_with_pivots([[2, 4], [1, 2]], 5)[0] == ((1, 2), (0, 0))


def test_rref_pivots_and_rank():
    rows, pivots = rref_with_pivots([[2, 4], [1, 3]], 5)
    assert rows == ((1, 0), (0, 1))
    assert pivots == (0, 1)
    assert len(span_key([[1, 2, 3], [2, 4, 6]], 7)) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.data(),
)
def test_rref_preserves_row_space(p, data):
    dims = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 4)))
    rows, cols = dims
    m = data.draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    reduced, _ = rref_with_pivots(m, p)
    # mutual membership: every row of each matrix reduces to 0 against the other
    assert span_key(list(m) + list(reduced), p) == span_key(m, p)
    assert len(span_key(m, p)) == len(span_key(reduced, p))


def test_wedge_pairs_are_the_lex_index_pairs():
    assert wedge_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert len(wedge_pairs(8)) == 28
    assert wedge((1, 2, 0, 4), (3, 0, 1, 1), 5) == (4, 1, 4, 2, 2, 1)


def _rows_read_off_the_wedge(u, v, p):
    return wedge_span_key(wedge(u, v, p), len(u), p)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_wedge_span_key_equals_span_key_exhaustive_p3(m):
    """Every rank-2 pair of length m over GF(3); the wedge of every other
    pair is zero.  The lengths cover the census's rotation vectors (2n = 4)
    and the value coordinates of classify._target_plane (n + 1 = 3, 4, 5)."""
    rows = list(itertools.product(range(3), repeat=m))
    rank2 = 0
    for u in rows:
        for v in rows:
            key = span_key([u, v], 3)
            if len(key) == 2:
                rank2 += 1
                assert _rows_read_off_the_wedge(u, v, 3) == key, (u, v)
            else:
                assert not any(wedge(u, v, 3)), (u, v)
    assert rank2 == (3**m - 1) * (3**m - 3)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7, 13]), st.integers(2, 6), st.data())
def test_wedge_span_key_equals_span_key(p, m, data):
    """Random pairs, with v a multiple of u in some of them: a rank-2 pair
    gives span_key's rows, every other pair a zero wedge."""
    row = st.tuples(*(st.integers(0, p - 1) for _ in range(m)))
    u = data.draw(row)
    c = data.draw(st.none() | st.integers(0, p - 1))
    v = data.draw(row) if c is None else tuple(c * x % p for x in u)
    key = span_key([u, v], p)
    if len(key) == 2:
        assert _rows_read_off_the_wedge(u, v, p) == key
    else:
        assert not any(wedge(u, v, p))


@pytest.mark.parametrize("p, n", [(5, 2), (7, 3), (11, 4)])
def test_wedge_span_key_equals_span_key_on_seeded_pairs(p, n):
    """Random pairs with 0..2n - 1 leading zeros in each row, so that the
    two pivots fall on any position."""
    rng = random.Random(100 * p + n)
    m = 2 * n
    checked = 0
    while checked < 500:
        u, v = (
            (0,) * k + tuple(rng.randrange(p) for _ in range(m - k))
            for k in (rng.randrange(m), rng.randrange(m))
        )
        key = span_key([u, v], p)
        if len(key) == 2:
            checked += 1
            assert _rows_read_off_the_wedge(u, v, p) == key, (u, v)


def test_wedge_span_key_refuses_a_zero_wedge():
    with pytest.raises(ValueError):
        wedge_span_key(wedge((1, 2, 3, 4), (2, 4, 1, 3), 5), 4, 5)
