import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenspp.errors import CapacityError, InvalidPrime
from lenspp.gfp import (
    Mat2,
    gl2_elements,
    gl2_pm_elements,
    gl2_pm_tuples,
    gl2_tuples,
    inv,
    is_odd_prime,
    pair_span_key,
    MR_EXACT_BOUND,
    is_quadratic_residue,
    quadratic_residues,
    rank,
    require_odd_prime,
    rref,
    rref_with_pivots,
    span_key,
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
    assert quadratic_residues(5) == frozenset({1, 4})
    assert quadratic_residues(7) == frozenset({1, 2, 4})


def test_quadratic_residue_examples():
    assert is_quadratic_residue(2, 7)
    assert not is_quadratic_residue(3, 7)


def test_euler_criterion_agrees_with_scan():
    for p in (3, 5, 7, 11, 13, 17):
        scanned = quadratic_residues(p)
        for x in range(1, p):
            assert is_quadratic_residue(x, p) == (x in scanned)
        assert len(scanned) == (p - 1) // 2


def test_quadratic_residue_rejects_zero():
    with pytest.raises(ValueError):
        is_quadratic_residue(0, 5)


def test_gl2_counts():
    assert len(gl2_tuples(3)) == 48
    assert len(gl2_tuples(5)) == 480
    assert len(gl2_pm_tuples(5)) == 240
    assert len(gl2_tuples(7)) == 2016
    assert len(gl2_pm_tuples(7)) == 672


def test_gl2_enumeration_is_row_major_and_exact():
    seen = list(gl2_tuples(3))
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)
    for e in seen:
        assert (e[0] * e[3] - e[1] * e[2]) % 3 != 0


def test_gl2_pm_subset():
    full = set(gl2_tuples(5))
    pm = set(gl2_pm_tuples(5))
    assert pm <= full
    for e in pm:
        assert (e[0] * e[3] - e[1] * e[2]) % 5 in (1, 4)


def test_gl2_capacity_guard():
    with pytest.raises(CapacityError):
        list(gl2_elements(37))


def test_mat2_inverse_roundtrip_exhaustive_p3():
    ident = Mat2.identity(3)
    for m in gl2_elements(3):
        assert m * m.inverse() == ident
        assert m.inverse() * m == ident


def test_mat2_normalizes_entries():
    m = Mat2(5, (6, -1, 10, 3))
    assert m.entries == (1, 4, 0, 3)


def test_rref_examples():
    assert rref([[0, 0], [0, 0]], 5) == ((0, 0), (0, 0))
    assert rref([[1, 0], [0, 1]], 5) == ((1, 0), (0, 1))
    assert rref([[2, 4], [1, 2]], 5) == ((1, 2), (0, 0))


def test_rref_pivots_and_rank():
    rows, pivots = rref_with_pivots([[2, 4], [1, 3]], 5)
    assert rows == ((1, 0), (0, 1))
    assert pivots == (0, 1)
    assert rank([[1, 2, 3], [2, 4, 6]], 7) == 1


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
    reduced = rref(m, p)
    # mutual membership: every row of each matrix reduces to 0 against the other
    assert span_key(list(m) + list(reduced), p) == span_key(m, p)
    assert rank(m, p) == rank(reduced, p)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7, 13]), st.data())
def test_pair_span_key_equals_span_key(p, data):
    m = data.draw(st.integers(1, 5))
    row = st.tuples(*(st.integers(0, p - 1) for _ in range(m)))
    u, v = data.draw(row), data.draw(row)
    assert pair_span_key(u, v, p) == span_key([u, v], p)
