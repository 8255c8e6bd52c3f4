"""Acceptance gate: one test per stated criterion, one pass/fail line each.

The report lines are printed with capture disabled so they appear in the
run log regardless of capture settings.
"""

import itertools
import random

import pytest

from lenspp.actions import (
    RotationData,
    is_free,
    is_free_plane_form,
    product_of_lens_spaces,
    validate,
)
from lenspp.census import run_census, verify_application, write_census
from lenspp.classify import (
    canonical_form,
    homotopy_equivalent,
    lens_homotopy_equivalent,
    lens_simple_homotopy_equivalent,
    simple_homotopy_equivalent,
)
from lenspp.errors import InvalidSpan
from lenspp.forms import HomogeneousForm, k_invariant, substitute
from lenspp.gfp import Mat2, inv, is_quadratic_residue
from lenspp.pontrjagin import total_pontrjagin
from lenspp.quotient_ring import CohomRingModel, ring_model


@pytest.fixture
def report(capfd):
    def _report(num: int, name: str, ok: bool) -> None:
        line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
        with capfd.disabled():
            print(line)
        assert ok, line
    return _report


def test_acceptance_1_residue_criterion_matches_classifier(report):
    """QR criterion implies the full classifier's homeomorphic verdict,
    exhaustively over units^4 at p = 5 and p = 7."""
    ok = True
    for p in (5, 7):
        result = verify_application(p)
        ok = ok and result.quadruples == (p - 1) ** 4
        ok = ok and not result.sufficiency_discrepancies
        ok = ok and not result.necessity_discrepancies
    report(1, "residue criterion vs classifier", ok)


def test_acceptance_2_pontrjagin_vanishing_for_lens_products(report):
    ok = True
    for p in (5, 7):
        for r1, r2, q1, q2 in itertools.product(range(1, p), repeat=4):
            d = product_of_lens_spaces(p, (r1, r2), (q1, q2))
            cls = total_pontrjagin(d)
            if not cls.is_trivial():
                ok = False
    report(2, "Pontrjagin class of 6-dim lens products vanishes", ok)


def test_acceptance_3_k_invariant_product_formula(report):
    ok = True
    for p in (5, 7):
        for r1, r2, q1, q2 in itertools.product(range(1, p), repeat=4):
            k = k_invariant(product_of_lens_spaces(p, (r1, r2), (q1, q2)))
            if k.first.coeffs != (r1 * r2 % p, 0, 0):
                ok = False
            if k.second.coeffs != (0, 0, q1 * q2 % p):
                ok = False
    report(3, "k-invariant of products is (prod r a^2, prod r' b^2)", ok)


def test_acceptance_4_freeness_scan_matches_plane_form(report):
    ok = True
    for p in (3, 5):
        n = 2
        for R in itertools.product(range(p), repeat=2 * n):
            if not any(R):
                continue
            for Q in itertools.product(range(p), repeat=2 * n):
                try:
                    d = validate(RotationData(p, n, R, Q))
                except InvalidSpan:
                    continue
                if is_free(d).free != is_free_plane_form(d):
                    ok = False
    report(4, "is_free agrees with plane form on all validated pairs", ok)


def test_acceptance_5_lens_baseline_cross_oracle(report):
    ok = lens_homotopy_equivalent(7, 2, (1, 1), (1, 2))
    ok = ok and not lens_simple_homotopy_equivalent(7, 2, (1, 1), (1, 2))
    # the scan criterion coincides with the classical square test
    for p in (5, 7, 11):
        for r in range(1, p):
            for rp in range(1, p):
                ratio = rp * inv(r, p) % p
                classical = is_quadratic_residue(ratio, p) or is_quadratic_residue(
                    (p - ratio) % p, p
                )
                if lens_homotopy_equivalent(p, 2, (1, r), (1, rp)) != classical:
                    ok = False
    report(5, "lens baselines reproduce the classical facts", ok)


def test_acceptance_6_simple_homotopy_collapse_on_random_pairs(report):
    rng = random.Random(20260821)
    p, n = 5, 2

    def draw_free():
        while True:
            R = tuple(rng.randrange(p) for _ in range(2 * n))
            Q = tuple(rng.randrange(p) for _ in range(2 * n))
            if all(
                (R[i] * Q[j] - Q[i] * R[j]) % p
                for i in range(n)
                for j in range(n, 2 * n)
            ):
                return validate(RotationData(p, n, R, Q))

    ok = True
    for _ in range(1000):
        X, Y = draw_free(), draw_free()
        if simple_homotopy_equivalent(X, Y).equivalent != homotopy_equivalent(X, Y).equivalent:
            ok = False
    report(6, "simple homotopy verdicts equal homotopy verdicts (1000 pairs)", ok)


def test_acceptance_7_product_of_inequivalent_lens_spaces(report):
    factors_homotopy = lens_homotopy_equivalent(7, 2, (1, 1), (1, 2))
    factors_simple = lens_simple_homotopy_equivalent(7, 2, (1, 1), (1, 2))
    X = product_of_lens_spaces(7, (1, 1), (1, 1))
    Y = product_of_lens_spaces(7, (1, 2), (1, 2))
    products_simple = simple_homotopy_equivalent(X, Y).equivalent
    ok = factors_homotopy and not factors_simple and products_simple
    report(7, "products of non-simple-equivalent lens spaces are equivalent", ok)


def test_acceptance_8_property_suites(tmp_path, report):
    rng = random.Random(97)
    p = 5
    ok = True

    # substitution composition law on random forms and matrices
    def rand_invertible():
        while True:
            e = tuple(rng.randrange(p) for _ in range(4))
            if (e[0] * e[3] - e[1] * e[2]) % p:
                return Mat2(p, e)

    for _ in range(300):
        deg = rng.randrange(1, 5)
        f = HomogeneousForm(p, tuple(rng.randrange(p) for _ in range(deg + 1)))
        A, A2 = rand_invertible(), rand_invertible()
        if substitute(substitute(f, A), A2) != substitute(f, A * A2):
            ok = False

    # reduce linearity and idempotence; basis independence of the ideal
    base = validate(RotationData(p, 2, (1, 2, 0, 0), (0, 0, 1, 3)))
    k = k_invariant(base)
    model = ring_model(p, 2, k.coeff_pair())
    for _ in range(300):
        deg = rng.randrange(2, 4)
        u = HomogeneousForm(p, tuple(rng.randrange(p) for _ in range(deg + 1)))
        v = HomogeneousForm(p, tuple(rng.randrange(p) for _ in range(deg + 1)))
        alpha = rng.randrange(p)
        lin = model.reduce(u.scale(alpha) + v)
        if lin != model.reduce(u).scale(alpha) + model.reduce(v):
            ok = False
        if model.reduce(lin) != lin:
            ok = False
    for _ in range(60):
        B = rand_invertible()
        a, b, c, e = B.entries
        recombined = CohomRingModel(
            p, 2, k.first.scale(a) + k.second.scale(b),
            k.first.scale(c) + k.second.scale(e),
        )
        u = HomogeneousForm(p, tuple(rng.randrange(p) for _ in range(4)))
        if recombined.reduce(u) != model.reduce(u):
            ok = False

    # canonical-form partition equals the pairwise-verdict partition
    spaces = []
    seen = set()
    while len(spaces) < 200:
        R = tuple(rng.randrange(p) for _ in range(4))
        Q = tuple(rng.randrange(p) for _ in range(4))
        if (R, Q) in seen:
            continue
        if all((R[i] * Q[j] - Q[i] * R[j]) % p for i in range(2) for j in range(2, 4)):
            seen.add((R, Q))
            spaces.append(validate(RotationData(p, 2, R, Q)))
    by_canon = {}
    for idx, d in enumerate(spaces):
        by_canon.setdefault(canonical_form(d), []).append(idx)
    classes = []  # [(representative index, member indices)]
    for idx, d in enumerate(spaces):
        for rep_idx, members in classes:
            if homotopy_equivalent(spaces[rep_idx], d).equivalent:
                members.append(idx)
                break
        else:
            classes.append((idx, [idx]))
    partition_pairwise = sorted(sorted(m) for _, m in classes)
    partition_canon = sorted(sorted(m) for m in by_canon.values())
    if partition_pairwise != partition_canon:
        ok = False
    for _ in range(200):
        i, j = rng.randrange(200), rng.randrange(200)
        same = canonical_form(spaces[i]) == canonical_form(spaces[j])
        if homotopy_equivalent(spaces[i], spaces[j]).equivalent != same:
            ok = False

    # census byte stability across runs
    rec1 = run_census(3, 2)
    rec3 = run_census(3, 2)
    f1 = write_census(rec1, tmp_path / "w1")
    f3 = write_census(rec3, tmp_path / "w3")
    if f1[0].read_bytes() != f3[0].read_bytes():
        ok = False
    if f1[1].read_bytes() != f3[1].read_bytes():
        ok = False

    report(8, "property suites", ok)
