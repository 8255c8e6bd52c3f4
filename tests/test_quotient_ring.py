import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import form_strategy, invertible_mat_strategy
from lenspp.actions import RotationData, validate
from lenspp.errors import DegenerateIdeal
from lenspp.forms import HomogeneousForm, k_invariant, substitute
from lenspp.gfp import Mat2
from lenspp.quotient_ring import CohomRingModel, TotalClass, ring_model


def _model_ab(p=5):
    # k = (a^2, b^2), the standard lens-product model
    return CohomRingModel(
        p, 2, HomogeneousForm(p, (1, 0, 0)), HomogeneousForm(p, (0, 0, 1))
    )


def test_ideal_bases_for_square_generators():
    m = _model_ab()
    assert m._basis(2)[0] == ((1, 0, 0), (0, 0, 1))
    # degree 3: a^3, a^2 b, a b^2, b^3 all lie in the ideal
    assert m._basis(3)[0] == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    assert m._basis(1)[0] == ()


def test_reduce_examples():
    m = _model_ab()
    assert m.reduce(HomogeneousForm(5, (1, 1, 0))).coeffs == (0, 1, 0)
    assert m.reduce(HomogeneousForm(5, (3, 2, 4))).coeffs == (0, 2, 0)
    assert m.reduce(HomogeneousForm(5, (0, 0, 0))).coeffs == (0, 0, 0)
    assert m.reduce(HomogeneousForm(5, (0, 1, 0))).coeffs == (0, 1, 0)


def test_in_ideal_examples():
    m = _model_ab()
    assert m.reduce(HomogeneousForm(5, (1, 0, 0))).is_zero()
    assert not m.reduce(HomogeneousForm(5, (0, 1, 0))).is_zero()
    # a^2 b^2 sits above the precomputed range and is still decided
    assert m.reduce(HomogeneousForm(5, (0, 0, 1, 0, 0))).is_zero()


def test_zero_generator_rejected():
    with pytest.raises(DegenerateIdeal):
        CohomRingModel(5, 2, HomogeneousForm(5, (0, 0, 0)), HomogeneousForm(5, (0, 0, 1)))


@pytest.mark.parametrize(
    "f, g, message",
    [
        ((7, (1, 0, 0)), (5, (0, 0, 1)), "ideal generators must live over GF\\(p\\)"),
        ((5, (1, 0, 0)), (7, (0, 0, 1)), "ideal generators must live over GF\\(p\\)"),
        ((5, (1, 0)), (5, (0, 0, 1)), "ideal generators must be forms of degree n"),
        ((5, (1, 0, 0)), (5, (0, 0, 0, 1)), "ideal generators must be forms of degree n"),
    ],
)
def test_ring_model_refuses_generators_of_another_modulus_or_degree(f, g, message):
    with pytest.raises(ValueError, match=message):
        CohomRingModel(5, 2, HomogeneousForm(*f), HomogeneousForm(*g))


def test_ring_model_from_k_invariant():
    d = validate(RotationData(5, 2, (1, 1, 0, 0), (0, 0, 1, 1)))
    m = ring_model(5, 2, k_invariant(d).coeff_pair())
    assert m.reduce(HomogeneousForm(5, (1, 0, 0))).is_zero()


def test_equal_in_quotient_forms():
    m = _model_ab()
    u = HomogeneousForm(5, (1, 1, 0))
    v = HomogeneousForm(5, (0, 1, 4))
    assert m.reduce(u + v.scale(-1)).is_zero()  # differ by a^2 + b^2
    assert not m.reduce(u + HomogeneousForm(5, (0, 0, 0)).scale(-1)).is_zero()


def test_equal_in_quotient_total_classes():
    m = _model_ab()
    u = TotalClass(5, 3, ((4, HomogeneousForm(5, (1, 0, 1))),))
    v = TotalClass(5, 3, ())
    assert m.reduce(u.component(4) + v.component(4).scale(-1)).is_zero()
    w = TotalClass(5, 3, ((4, HomogeneousForm(5, (0, 1, 0))),))
    assert not m.reduce(w.component(4) + v.component(4).scale(-1)).is_zero()


def test_reduce_rejects_wrong_modulus():
    m = _model_ab()
    with pytest.raises(ValueError):
        m.reduce(HomogeneousForm(7, (1, 0, 0)))


def test_total_class_validation():
    with pytest.raises(ValueError):
        TotalClass(5, 3, ((3, HomogeneousForm(5, (1, 0))),))
    with pytest.raises(ValueError):
        TotalClass(5, 1, ((4, HomogeneousForm(5, (1, 0, 0))),))


@pytest.mark.parametrize("degree, coeffs", [(8, (1, 0, 0)), (4, (1, 0, 0, 0, 0)), (12, (1, 0, 0))])
def test_total_class_refuses_a_component_whose_degree_mismatches_its_label(degree, coeffs):
    with pytest.raises(ValueError, match="component polynomial degree inconsistent with its label"):
        TotalClass(5, 5, ((degree, HomogeneousForm(5, coeffs)),))


def test_total_class_component_fill():
    t = TotalClass(5, 3, ())
    assert t.component(4).coeffs == (0, 0, 0)
    assert t.is_trivial()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_reduce_is_linear_and_idempotent(p, data):
    d = validate(RotationData(p, 2, (1, 1, 0, 0), (0, 0, 1, 2)))
    m = ring_model(p, 2, k_invariant(d).coeff_pair())
    deg = data.draw(st.integers(2, 3))
    u = data.draw(form_strategy(p, deg))
    v = data.draw(form_strategy(p, deg))
    alpha = data.draw(st.integers(0, p - 1))
    lhs = m.reduce(u.scale(alpha) + v)
    rhs = m.reduce(u).scale(alpha) + m.reduce(v)
    assert m.reduce(rhs) == lhs == m.reduce(lhs)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_ideal_depends_only_on_span(p, data):
    """Recombined generators (det != 0) give identical reduce outputs."""
    f = HomogeneousForm(p, (1, 0, 0))
    g = HomogeneousForm(p, (0, 0, 1))
    B = data.draw(invertible_mat_strategy(p))
    a, b, c, e = B.entries
    f2 = f.scale(a) + g.scale(b)
    g2 = f.scale(c) + g.scale(e)
    m1 = CohomRingModel(p, 2, f, g)
    m2 = CohomRingModel(p, 2, f2, g2)
    h = data.draw(form_strategy(p, data.draw(st.integers(2, 3))))
    assert m1.reduce(h) == m2.reduce(h)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ideal_substitution_equivariance(data):
    p = 5
    d = validate(RotationData(p, 2, (1, 2, 0, 0), (0, 0, 1, 3)))
    k = k_invariant(d)
    A = data.draw(invertible_mat_strategy(p))
    m = ring_model(p, 2, k.coeff_pair())
    m_sub = CohomRingModel(p, 2, substitute(k.first, A), substitute(k.second, A))
    h = data.draw(form_strategy(p, data.draw(st.integers(2, 3))))
    assert m.reduce(h).is_zero() == m_sub.reduce(substitute(h, A)).is_zero()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(5, 2), (7, 3)]), st.data())
def test_reduce_coeffs_matches_sequential_elimination(pn, data):
    """The one-pass tuple reduction equals eliminating pivot by pivot, on
    unreduced input and on degrees above the truncation too."""
    p, n = pn
    f = data.draw(form_strategy(p, n).filter(lambda f: not f.is_zero()))
    g = data.draw(form_strategy(p, n).filter(lambda g: not g.is_zero()))
    m = CohomRingModel(p, n, f, g)
    deg = data.draw(st.integers(0, 2 * n + 1))
    raw = data.draw(st.lists(st.integers(-50, 50), min_size=deg + 1, max_size=deg + 1))
    coeffs = [x % p for x in raw]
    for row, piv in zip(*m._basis(deg)):
        c = coeffs[piv]
        coeffs = [(x - c * y) % p for x, y in zip(coeffs, row)]
    assert m.reduce_coeffs(tuple(raw)) == tuple(coeffs)
    assert m.reduce(HomogeneousForm(p, tuple(raw))).coeffs == tuple(coeffs)
