import hashlib
import itertools
import json
import random

import pytest

from lenspp.actions import (
    RotationData,
    is_free,
    product_of_lens_spaces,
    validate,
)
from lenspp.census import (
    _classify_item,
    enumerate_free,
    free_count,
    run_census,
    verify_application,
    write_census,
)
from lenspp import census, classify, forms
from lenspp.classify import canonical_form, homeomorphic, homotopy_equivalent
from lenspp.errors import CapacityError, InvalidSpan
from lenspp.forms import HomogeneousForm, k_invariant, substitute
from lenspp.gfp import Mat2
from lenspp.pontrjagin import total_pontrjagin_raw
from lenspp.quotient_ring import CohomRingModel, ring_model


def test_enumerate_free_contains_standard_product():
    stream = list(enumerate_free(3, 2))
    assert stream
    target = product_of_lens_spaces(3, (1, 1), (1, 1))
    assert any(d.R == target.R and d.Q == target.Q for d in stream)


def test_enumerate_free_yields_valid_free_spaces_once():
    stream = list(enumerate_free(3, 2))
    seen = {(d.R, d.Q) for d in stream}
    assert len(seen) == len(stream)
    for d in itertools.islice(stream, 0, len(stream), 97):
        revalidated = validate(RotationData(d.p, d.n, d.R, d.Q))
        assert is_free(revalidated).free


def test_enumerate_free_count_matches_recount():
    """Independent double loop over raw pairs at p=3."""
    p, n = 3, 2
    count = 0
    for R in itertools.product(range(p), repeat=2 * n):
        for Q in itertools.product(range(p), repeat=2 * n):
            try:
                d = validate(RotationData(p, n, R, Q))
            except InvalidSpan:
                continue
            if is_free(d).free:
                count += 1
    assert count == sum(1 for _ in enumerate_free(p, n)) == 1344


def test_enumerate_free_capacity_guard():
    with pytest.raises(CapacityError):
        next(enumerate_free(11, 2))
    with pytest.raises(CapacityError):
        next(enumerate_free(5, 3))


def _free_pairs_by_blocks(p, n):
    """Free (R, Q) pairs counted by brute force over pairs of column blocks:
    free iff every column of one block is independent of every column of
    the other."""
    cols = list(itertools.product(range(p), repeat=2))
    apart = {(c, d): (c[0] * d[1] - c[1] * d[0]) % p != 0 for c in cols for d in cols}
    blocks = list(itertools.product(cols, repeat=n))
    return sum(
        all(apart[c, d] for c in first for d in second)
        for first in blocks
        for second in blocks
    )


@pytest.mark.parametrize("p, n, free", [(3, 2, 1344), (5, 2, 161280), (3, 3, 26880)])
def test_free_count_closed_form_matches_brute_force(p, n, free):
    assert free_count(p, n) == _free_pairs_by_blocks(p, n) == free


def test_free_count_at_p7_matches_the_census():
    assert free_count(7, 2) == 3_120_768


def test_oversized_sample_is_refused_before_sampling():
    with pytest.raises(CapacityError):
        next(enumerate_free(3, 2, sample=1345))
    with pytest.raises(CapacityError):
        run_census(3, 2, sample=1_000_000)
    # the whole population is still a valid sample
    assert sum(1 for _ in enumerate_free(3, 2, sample=1344, seed=1)) == 1344


def test_enumerate_free_sampling_is_seeded_and_free():
    a = list(enumerate_free(11, 2, sample=25, seed=7))
    b = list(enumerate_free(11, 2, sample=25, seed=7))
    assert [(d.R, d.Q) for d in a] == [(d.R, d.Q) for d in b]
    assert len({(d.R, d.Q) for d in a}) == 25
    for d in a[:5]:
        assert is_free(validate(RotationData(d.p, d.n, d.R, d.Q))).free


def test_census_p3_counts():
    rec = run_census(3, 2)
    assert rec.total_pairs == 6240
    assert rec.free_count == 1344
    assert rec.homotopy_classes == 2
    assert rec.homeomorphism_classes == 2
    assert rec.outside_hypotheses
    assert not rec.sampled
    assert sum(r.count for r in rec.representatives) == rec.free_count


def _ndjson_sha256(rec, out_dir) -> str:
    return hashlib.sha256(write_census(rec, out_dir)[0].read_bytes()).hexdigest()


def test_census_p3_bytes(tmp_path):
    assert _ndjson_sha256(run_census(3, 2), tmp_path) == (
        "4b30262b5dfc50888b1014f69d425cc57300e7ac7b0838973d94d8265e5a4024"
    )


def test_census_p5_counts(tmp_path):
    """Frozen regression pins; derived once from the exhaustive run and
    cross-checked against the pairwise classifier on representatives."""
    rec = run_census(5, 2)
    assert _ndjson_sha256(rec, tmp_path) == (
        "afd579dbf53fcf09d7a642403be29fce65a3516e5c462b6789e1f72285662efc"
    )
    assert rec.total_pairs == 386880
    assert rec.free_count == 161280
    assert rec.homotopy_classes == 4
    assert rec.homeomorphism_classes == 7
    assert not rec.outside_hypotheses
    assert sum(r.count for r in rec.representatives) == rec.free_count
    # every homeomorphism class sits inside exactly one homotopy class
    canons = {}
    for rep in rec.representatives:
        canons.setdefault(rep.canonical, []).append(rep.fingerprint)
    assert len(canons) == rec.homotopy_classes
    for fps in canons.values():
        assert len(fps) == len(set(fps))
    # representatives of one homotopy class are homotopy equivalent,
    # across classes they are not; distinct fingerprints are not homeomorphic
    reps = [
        validate(RotationData(5, 2, rep.R, rep.Q)) for rep in rec.representatives
    ]
    for i, X in enumerate(reps):
        for j, Y in enumerate(reps):
            same_canon = rec.representatives[i].canonical == rec.representatives[j].canonical
            assert homotopy_equivalent(X, Y).equivalent == same_canon
            assert homeomorphic(X, Y).equivalent == (i == j)


def test_census_known_class_memberships():
    """L(5;1)xL(5;1) and L(5;1)xL(5;4) share a class; L(5;1)xL(5;2) does not."""
    a = _classify_item(product_of_lens_spaces(5, (1, 1), (1, 1)))
    b = _classify_item(product_of_lens_spaces(5, (1, 1), (1, 4)))
    c = _classify_item(product_of_lens_spaces(5, (1, 1), (1, 2)))
    assert a == b
    assert a[0] != c[0]


def test_census_workers_merge_identically():
    solo = run_census(3, 2, workers=1)
    multi = run_census(3, 2, workers=4)
    assert solo == multi


def test_census_reversed_order_recount():
    """Grouping the stream in reversed order reproduces the counts."""
    rec = run_census(3, 2)
    groups = {}
    for d in reversed(list(enumerate_free(3, 2))):
        groups.setdefault(_classify_item(d), []).append((d.R, d.Q))
    assert len(groups) == rec.homeomorphism_classes
    assert len({canon for canon, _ in groups}) == rec.homotopy_classes
    by_key = {(r.canonical, r.fingerprint): r for r in rec.representatives}
    for key, members in groups.items():
        assert by_key[key].count == len(members)
        assert min(members) == (by_key[key].R, by_key[key].Q)


def _relabel(d, m):
    """d with the group generators changed by m: same homotopy class."""
    a, b, c, e = m
    R = tuple((a * r + b * q) % d.p for r, q in zip(d.R, d.Q))
    Q = tuple((c * r + e * q) % d.p for r, q in zip(d.R, d.Q))
    return validate(RotationData(d.p, d.n, R, Q))


def test_census_counts_invariant_under_group_relabeling():
    """Applying one fixed basis change to every space permutes the census."""
    p, n = 3, 2
    rec = run_census(p, n)
    m = (1, 1, 0, 1)  # unipotent relabeling of the two generators
    sizes = {}
    for d in enumerate_free(p, n):
        key = _classify_item(_relabel(d, m))
        sizes[key] = sizes.get(key, 0) + 1
    assert sorted(sizes.values()) == sorted(r.count for r in rec.representatives)
    assert len(sizes) == rec.homeomorphism_classes


def test_census_members_match_their_representative():
    """First few members of each p=5 class are homeomorphic to the class
    representative and only to it."""
    rec = run_census(5, 2)
    by_key = {(r.canonical, r.fingerprint): r for r in rec.representatives}
    members = {key: [] for key in by_key}
    pending = set(by_key)
    for d in enumerate_free(5, 2):
        key = _classify_item(d)
        if key in pending:
            members[key].append(d)
            if len(members[key]) == 3:
                pending.discard(key)
        if not pending:
            break
    for key, ds in members.items():
        rep = validate(RotationData(5, 2, by_key[key].R, by_key[key].Q))
        for d in ds:
            assert homeomorphic(d, rep).equivalent
        for other_key, other in by_key.items():
            if other_key == key:
                continue
            other_rep = validate(RotationData(5, 2, other.R, other.Q))
            assert not homeomorphic(ds[0], other_rep).equivalent


def test_write_census_files_and_stability(tmp_path):
    rec = run_census(3, 2)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    p1 = write_census(rec, d1)
    p2 = write_census(run_census(3, 2, workers=2), d2)
    assert [q.name for q in p1] == ["census_p3_n2.ndjson", "summary.csv"]
    assert p1[0].read_bytes() == p2[0].read_bytes()
    assert p1[1].read_bytes() == p2[1].read_bytes()
    lines = p1[0].read_text().splitlines()
    assert len(lines) == rec.homeomorphism_classes
    first = json.loads(lines[0])
    assert first["p"] == 3 and first["n"] == 2
    assert first["outside_hypotheses"] is True
    assert p1[1].read_text().splitlines()[0] == (
        "p,n,free_count,homotopy_classes,homeomorphism_classes"
    )
    assert p1[1].read_text().splitlines()[1] == "3,2,1344,2,2"


def test_verify_application_p5():
    report = verify_application(5)
    assert report.quadruples == 256
    assert report.criterion_true == 128
    assert report.ok
    assert report.sufficiency_discrepancies == ()
    assert report.necessity_discrepancies == ()


def test_verify_application_guard():
    with pytest.raises(CapacityError):
        verify_application(13)


def test_run_census_capacity():
    with pytest.raises(CapacityError):
        run_census(11, 2)


def test_run_census_sampled():
    rec = run_census(5, 2, sample=40, seed=3)
    assert rec.sampled
    assert rec.free_count == 40
    assert sum(r.count for r in rec.representatives) == 40


def _classify_with_forms(d, memo):
    """The census key through the form-valued APIs: k_invariant and its
    canonical form, total_pontrjagin_raw, substitute and
    CohomRingModel.reduce, minimized over the canonical form's self-witnesses."""
    p, n = d.p, d.n
    canon, a0 = classify._canonicalize(p, n, k_invariant(d).coeff_pair())
    if p > 3 and p > n + 1:
        assert tuple(f.coeffs for f in canonical_form(d)) == canon
    model = CohomRingModel(p, n, HomogeneousForm(p, canon[0]), HomogeneousForm(p, canon[1]))
    raw = total_pontrjagin_raw(d)
    t0 = tuple(
        (deg, model.reduce(substitute(raw[deg], Mat2(p, a0))).coeffs) for deg in sorted(raw)
    )
    if (canon, t0) not in memo:
        moved = [
            tuple(
                (deg, model.reduce(substitute(HomogeneousForm(p, c), Mat2(p, g))).coeffs)
                for deg, c in t0
            )
            for g in classify._matching_substitutions(p, n, canon, canon)
        ]
        memo[canon, t0] = min([t0, *moved])
    return canon, memo[canon, t0]


def test_classify_item_matches_form_path_p3():
    memo = {}
    for d in enumerate_free(3, 2):
        assert _classify_item(d) == _classify_with_forms(d, memo), (d.R, d.Q)


@pytest.mark.parametrize("n,sample", [(2, 300), (3, 8)])
def test_classify_item_matches_form_path_p5(n, sample):
    memo = {}
    for d in enumerate_free(5, n, sample=sample, seed=11):
        assert _classify_item(d) == _classify_with_forms(d, memo), (d.R, d.Q)


def test_classify_item_matches_form_path_p7_n3():
    """One seeded space and relabelled copies of it, so that a single orbit
    search (~0.2 M pairs) covers them all."""
    rng = random.Random(7)
    (d,) = enumerate_free(7, 3, sample=1, seed=7)
    spaces = [d]
    while len(spaces) < 6:
        m = tuple(rng.randrange(7) for _ in range(4))
        if (m[0] * m[3] - m[1] * m[2]) % 7:
            spaces.append(_relabel(d, m))
    memo = {}
    try:
        for x in spaces:
            assert _classify_item(x) == _classify_with_forms(x, memo), (x.R, x.Q)
    finally:
        classify._ORBITS.pop((7, 3), None)


def test_census_kernel_builds_almost_no_forms(monkeypatch):
    created = []
    post_init = forms.HomogeneousForm.__post_init__

    def counting(self):
        created.append(1)
        post_init(self)

    ring_model.cache_clear()
    monkeypatch.setattr(forms.HomogeneousForm, "__post_init__", counting)
    rec = run_census(3, 2)
    assert rec.free_count == 1344
    assert 0 < len(created) < 100
