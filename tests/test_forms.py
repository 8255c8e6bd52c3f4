import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import form_strategy, gl2_elements, invertible_mat_strategy
from lenspp.actions import RotationData, product_of_lens_spaces, validate
from lenspp.errors import HypothesisViolation
from lenspp.forms import (
    HomogeneousForm,
    apply_matrix,
    k_invariant,
    k_pair,
    product_of_linear_forms,
    substitute,
    substitute_columns,
    substitution_matrix,
)
from lenspp.gfp import Mat2
from lenspp.pontrjagin import pontrjagin_coeffs


def test_form_degree_and_length():
    f = HomogeneousForm(5, (1, 0, 0))
    assert f.deg == 2
    with pytest.raises(ValueError):
        HomogeneousForm(5, ())


def test_form_reduces_coefficients():
    assert HomogeneousForm(5, (6, -1, 10)).coeffs == (1, 4, 0)


def test_form_refuses_non_integer_coefficients():
    """int() would truncate them to the form (1, 2)."""
    with pytest.raises(ValueError, match="entries must be integers"):
        HomogeneousForm(5, (1.5, 2.9))
    with pytest.raises(ValueError, match="entries must be integers"):
        product_of_linear_forms(5, [(1.5, 2.7)])


def test_empty_product_is_one():
    assert product_of_linear_forms(5, []) == HomogeneousForm(5, (1,))
    assert product_of_linear_forms(5, []).deg == 0


def test_product_of_linear_forms_examples():
    assert product_of_linear_forms(5, [(1, 0), (1, 0)]).coeffs == (1, 0, 0)
    f = product_of_linear_forms(7, [(1, 1), (2, 1)])
    assert f.coeffs == (2, 3, 1)
    assert f.render() == "2a^2+3ab+b^2 (mod 7)"


def test_product_multiplicative_over_concatenation():
    pairs1 = [(1, 2), (3, 4)]
    pairs2 = [(2, 0), (1, 6)]
    lhs = product_of_linear_forms(7, pairs1 + pairs2)
    rhs = product_of_linear_forms(7, pairs1) * product_of_linear_forms(7, pairs2)
    assert lhs == rhs


def test_render_zero_and_units():
    assert HomogeneousForm(5, (0, 0, 0)).render() == "0 (mod 5)"
    assert HomogeneousForm(5, (0, 1, 1)).render() == "ab+b^2 (mod 5)"


def test_substitute_identity():
    f = HomogeneousForm(5, (2, 3, 1))
    assert substitute(f, Mat2.identity(5)) == f


def test_substitute_examples():
    f = HomogeneousForm(5, (1, 0, 0))  # a^2
    assert substitute(f, Mat2(5, (2, 0, 0, 1))).coeffs == (4, 0, 0)
    g = HomogeneousForm(7, (0, 1, 0))  # ab
    assert substitute(g, Mat2(7, (0, 1, 1, 0))) == g


def test_substitute_rejects_singular():
    f = HomogeneousForm(5, (1, 0, 0))
    with pytest.raises(ValueError):
        substitute(f, Mat2(5, (1, 2, 2, 4)))


@pytest.mark.parametrize(
    "other, message",
    [
        (HomogeneousForm(7, (1, 0, 0)), "forms over different moduli"),
        (HomogeneousForm(5, (1, 0)), "sum of forms of different degrees is not homogeneous"),
        (HomogeneousForm(5, (1, 0, 0, 0)), "sum of forms of different degrees is not homogeneous"),
    ],
)
def test_form_sum_refuses_another_modulus_or_degree(other, message):
    with pytest.raises(ValueError, match=message):
        HomogeneousForm(5, (1, 2, 3)) + other


def test_substitute_refuses_a_matrix_of_another_modulus():
    with pytest.raises(ValueError, match="substitution matrix modulus differs from the form's"):
        substitute(HomogeneousForm(5, (1, 0, 0)), Mat2.identity(7))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 4), st.data())
def test_substitution_composition_law(p, deg, data):
    """substitute(substitute(f, A), A2) = substitute(f, A * A2)."""
    f = data.draw(form_strategy(p, deg))
    A = data.draw(invertible_mat_strategy(p))
    A2 = data.draw(invertible_mat_strategy(p))
    assert substitute(substitute(f, A), A2) == substitute(f, A * A2)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.data())
def test_substitute_preserves_products(p, data):
    f = data.draw(form_strategy(p, data.draw(st.integers(1, 3))))
    g = data.draw(form_strategy(p, data.draw(st.integers(1, 3))))
    A = data.draw(invertible_mat_strategy(p))
    assert substitute(f * g, A) == substitute(f, A) * substitute(g, A)


def test_k_invariant_product_example():
    d = validate(RotationData(5, 2, (1, 1, 0, 0), (0, 0, 1, 1)))
    k = k_invariant(d)
    assert k.first.coeffs == (1, 0, 0)
    assert k.second.coeffs == (0, 0, 1)


def test_k_invariant_mixed_example():
    d = validate(RotationData(7, 2, (1, 2, 3, 4), (1, 1, 1, 1)))
    k = k_invariant(d)
    assert k.first.coeffs == (2, 3, 1)
    assert k.second.coeffs == (5, 0, 1)


def test_k_invariant_lens_product_scaling():
    d = product_of_lens_spaces(5, (1, 2), (1, 3))
    k = k_invariant(d)
    assert k.first.coeffs == (2, 0, 0)
    assert k.second.coeffs == (0, 0, 3)


def test_k_invariant_block_structure():
    # first component has no b-terms, second no a-terms, for any lens product
    for r1 in range(1, 5):
        for r2 in range(1, 5):
            k = k_invariant(product_of_lens_spaces(5, (r1, r2), (r2, r1)))
            assert k.first.coeffs[1:] == (0, 0)
            assert k.second.coeffs[:2] == (0, 0)


def test_k_invariant_hypothesis_guard():
    d = validate(
        RotationData(3, 3, (1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1))
    )
    with pytest.raises(HypothesisViolation):
        k_invariant(d)


def test_free_k_components_are_nonzero():
    d = validate(RotationData(7, 2, (1, 2, 3, 4), (1, 1, 1, 1)))
    k = k_invariant(d)
    assert not k.first.is_zero()
    assert not k.second.is_zero()


def test_form_json_roundtrip():
    f = HomogeneousForm(5, (2, 3, 1))
    doc = f.to_json()
    assert doc == {"deg": 2, "coeffs": [2, 3, 1]}
    assert HomogeneousForm(5, tuple(doc["coeffs"])) == f


def _check_substituted_columns(p, n, R, Q, A):
    """Relabelling the columns by A substitutes A into each product over
    them: the k-pair and the Pontrjagin components e_1 .. e_(n-1)."""
    cols = substitute_columns(p, A, zip(R, Q))
    R2, Q2 = (tuple(c[i] for c in cols) for i in (0, 1))
    assert k_pair(p, n, R2, Q2) == tuple(
        apply_matrix(substitution_matrix(p, n, A), x, p) for x in k_pair(p, n, R, Q)
    ), (R, Q, A)
    raw = pontrjagin_coeffs(p, zip(R, Q), n - 1)
    assert pontrjagin_coeffs(p, cols, n - 1) == [
        apply_matrix(substitution_matrix(p, 2 * k, A), c, p) for k, c in enumerate(raw, 1)
    ], (R, Q, A)


def test_substituted_columns_substitute_every_gl2_element_p3():
    rng = random.Random(3)
    for _ in range(4):
        R, Q = (tuple(rng.randrange(3) for _ in range(4)) for _ in range(2))
        for A in gl2_elements(3):
            _check_substituted_columns(3, 2, R, Q, A)


@pytest.mark.parametrize("p, n", [(5, 3), (7, 3), (13, 2), (31, 4)])
def test_substituted_columns_substitute_seeded_elements(p, n):
    rng = random.Random(100 * p + n)
    for _ in range(40):
        R, Q = (tuple(rng.randrange(p) for _ in range(2 * n)) for _ in range(2))
        A = (0, 0, 0, 0)
        while not (A[0] * A[3] - A[1] * A[2]) % p:
            A = tuple(rng.randrange(p) for _ in range(4))
        _check_substituted_columns(p, n, R, Q, A)
