import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import form_strategy, invertible_mat_strategy
from lenspp.actions import RotationData, validate
from lenspp.errors import DegenerateIdeal
from lenspp.forms import HomogeneousForm, k_invariant, substitute
from lenspp.gfp import Mat2
from lenspp.quotient_ring import CohomRingModel, TotalClass, build_model


def _model_ab(p=5):
    # k = (a^2, b^2), the standard lens-product model
    return CohomRingModel(
        p, 2, HomogeneousForm(p, (1, 0, 0)), HomogeneousForm(p, (0, 0, 1))
    )


def test_ideal_bases_for_square_generators():
    m = _model_ab()
    assert m.ideal_basis(2) == ((1, 0, 0), (0, 0, 1))
    # degree 3: a^3, a^2 b, a b^2, b^3 all lie in the ideal
    assert m.ideal_basis(3) == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    assert m.ideal_basis(1) == ()


def test_reduce_examples():
    m = _model_ab()
    assert m.reduce(HomogeneousForm(5, (1, 1, 0))).coeffs == (0, 1, 0)
    assert m.reduce(HomogeneousForm(5, (3, 2, 4))).coeffs == (0, 2, 0)
    assert m.reduce(HomogeneousForm(5, (0, 0, 0))).coeffs == (0, 0, 0)
    assert m.reduce(HomogeneousForm(5, (0, 1, 0))).coeffs == (0, 1, 0)


def test_in_ideal_examples():
    m = _model_ab()
    assert m.in_ideal(HomogeneousForm(5, (1, 0, 0)))
    assert not m.in_ideal(HomogeneousForm(5, (0, 1, 0)))
    # a^2 b^2 sits above the precomputed range and is still decided
    assert m.in_ideal(HomogeneousForm(5, (0, 0, 1, 0, 0)))


def test_zero_generator_rejected():
    with pytest.raises(DegenerateIdeal):
        CohomRingModel(5, 2, HomogeneousForm(5, (0, 0, 0)), HomogeneousForm(5, (0, 0, 1)))


def test_build_model_from_k_invariant():
    d = validate(RotationData(5, 2, (1, 1, 0, 0), (0, 0, 1, 1)))
    m = build_model(k_invariant(d), 5, 2)
    assert m.truncation == 3
    assert m.in_ideal(HomogeneousForm(5, (1, 0, 0)))


def test_equal_in_quotient_forms():
    m = _model_ab()
    u = HomogeneousForm(5, (1, 1, 0))
    v = HomogeneousForm(5, (0, 1, 4))
    assert m.equal_in_quotient(u, v)  # differ by a^2 + b^2
    assert not m.equal_in_quotient(u, HomogeneousForm(5, (0, 0, 0)))


def test_equal_in_quotient_total_classes():
    m = _model_ab()
    u = TotalClass(5, 3, ((4, HomogeneousForm(5, (1, 0, 1))),))
    v = TotalClass(5, 3, ())
    assert m.equal_in_quotient(u, v)
    w = TotalClass(5, 3, ((4, HomogeneousForm(5, (0, 1, 0))),))
    assert not m.equal_in_quotient(w, v)


def test_equal_in_quotient_mismatched_truncation():
    m = _model_ab()
    u = TotalClass(5, 3, ())
    v = TotalClass(5, 5, ())
    with pytest.raises(ValueError):
        m.equal_in_quotient(u, v)


def test_reduce_rejects_wrong_modulus():
    m = _model_ab()
    with pytest.raises(ValueError):
        m.reduce(HomogeneousForm(7, (1, 0, 0)))


def test_total_class_validation():
    with pytest.raises(ValueError):
        TotalClass(5, 3, ((3, HomogeneousForm(5, (1, 0))),))
    with pytest.raises(ValueError):
        TotalClass(5, 1, ((4, HomogeneousForm(5, (1, 0, 0))),))


def test_total_class_component_fill():
    t = TotalClass(5, 3, ())
    assert t.component(4).coeffs == (0, 0, 0)
    assert t.is_trivial()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_reduce_is_linear_and_idempotent(p, data):
    d = validate(RotationData(p, 2, (1, 1, 0, 0), (0, 0, 1, 2)))
    m = build_model(k_invariant(d), p, 2)
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
    m = build_model(k, p, 2)
    m_sub = CohomRingModel(p, 2, substitute(k.first, A), substitute(k.second, A))
    h = data.draw(form_strategy(p, data.draw(st.integers(2, 3))))
    assert m.in_ideal(h) == m_sub.in_ideal(substitute(h, A))


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
    for row, piv in zip(m.ideal_basis(deg), m._basis(deg)[1]):
        c = coeffs[piv]
        coeffs = [(x - c * y) % p for x, y in zip(coeffs, row)]
    assert m.reduce_coeffs(tuple(raw)) == tuple(coeffs)
    assert m.reduce(HomogeneousForm(p, tuple(raw))).coeffs == tuple(coeffs)
