import itertools
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from lenspp import HomogeneousForm, RotationData, validate
from lenspp.gfp import Mat2, rref_with_pivots


def form_strategy(p: int, deg: int):
    return st.lists(
        st.integers(min_value=0, max_value=p - 1), min_size=deg + 1, max_size=deg + 1
    ).map(lambda c: HomogeneousForm(p, tuple(c)))


def invertible_mat_strategy(p: int):
    return (
        st.tuples(*(st.integers(min_value=0, max_value=p - 1) for _ in range(4)))
        .filter(lambda e: (e[0] * e[3] - e[1] * e[2]) % p != 0)
        .map(lambda e: Mat2(p, e))
    )


@lru_cache(maxsize=8)
def gl2_elements(p: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every invertible (a11, a12, a21, a22) over GF(p), in row-major entry
    order, by brute force over all p^4 entry tuples."""
    return tuple(
        e for e in itertools.product(range(p), repeat=4) if (e[0] * e[3] - e[1] * e[2]) % p
    )


def span_key(rows, p: int) -> tuple[tuple[int, ...], ...]:
    """Canonical key for the row space, by general row reduction: the nonzero
    rows of the rref.  The oracle for gfp.wedge_span_key, which reads the
    rows of a plane off its 2x2 minors."""
    reduced, pivots = rref_with_pivots(rows, p)
    return reduced[: len(pivots)]


def _plane_free(R, Q, p, n):
    return all(
        (R[i] * Q[j] - Q[i] * R[j]) % p
        for i in range(n)
        for j in range(n, 2 * n)
    )


def free_space_strategy(p: int, n: int = 2):
    vec = st.tuples(*(st.integers(min_value=0, max_value=p - 1) for _ in range(2 * n)))
    return (
        st.tuples(vec, vec)
        .filter(lambda rq: _plane_free(rq[0], rq[1], p, n))
        .map(lambda rq: validate(RotationData(p, n, rq[0], rq[1])))
    )


@pytest.fixture
def lens_product_51_51():
    return validate(RotationData(5, 2, (1, 1, 0, 0), (0, 0, 1, 1)))
