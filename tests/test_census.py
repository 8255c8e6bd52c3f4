import concurrent.futures
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

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
from conftest import gl2_elements, span_key
from lenspp import actions, census, classify, forms, gfp
from lenspp.classify import canonical_form, homeomorphic, homotopy_equivalent
from lenspp.errors import CapacityError, HypothesisViolation, InvalidDimension, InvalidSpan
from lenspp.forms import HomogeneousForm, k_invariant, substitute
from lenspp.gfp import Mat2, inv, is_quadratic_residue, wedge
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


@pytest.mark.parametrize(
    "p, n, sample, error",
    [
        (5, 1, 3, InvalidDimension),
        (5, 1, None, InvalidDimension),
        (5, 0, None, InvalidDimension),
        (5, 2, -5, ValueError),
        (5, 2, 0, ValueError),
        (11, 2, None, CapacityError),
        (5, 3, None, CapacityError),
        (3, 2, 1345, CapacityError),
        (3, 3, 1, HypothesisViolation),
        (5, 5, 1, HypothesisViolation),
    ],
)
def test_census_refusals_are_shared_and_come_before_any_draw(monkeypatch, p, n, sample, error):
    """enumerate_free and run_census refuse the same inputs in the same
    category, with no raw pair scanned and no random draw made."""

    def forbidden(*args):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(census.random, "Random", forbidden)
    monkeypatch.setattr(census, "_scan", forbidden)
    for start in (lambda: next(enumerate_free(p, n, sample=sample)),
                  lambda: run_census(p, n, sample=sample)):
        with pytest.raises(error) as info:
            start()
        assert type(info.value) is error


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


def test_sampled_census_p5_n3_bytes(tmp_path):
    """The seed-0 sample of 3,000 at (5, 3) reaches all 10 homotopy classes;
    the digest is the one perfbench/expected.json records for sample_p5n3."""
    rec = run_census(5, 3, sample=3000, seed=0)
    assert rec.homotopy_classes == 10
    assert _ndjson_sha256(rec, tmp_path) == (
        "6174ae7999b2f5a1da338d2135f1973e15a317fde3c64cd193292b1ccd47bcfa"
    )


@pytest.mark.parametrize("sample", [None, 200])
def test_census_builds_no_rotation_data(monkeypatch, sample):
    """The scan and the draw hand plain (R, Q) tuples to the grouping step."""
    expected = run_census(3, 2, sample=sample, seed=5)

    def forbidden(*args):
        raise AssertionError("census built a RotationData")

    monkeypatch.setattr(census, "RotationData", forbidden)
    assert run_census(3, 2, sample=sample, seed=5) == expected


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
    a, b, c = (
        _classify_item(d.p, d.n, d.R, d.Q)
        for d in (product_of_lens_spaces(5, (1, 1), rp) for rp in [(1, 1), (1, 4), (1, 2)])
    )
    assert a == b
    assert a[0] != c[0]


def test_census_workers_merge_identically():
    solo = run_census(3, 2, workers=1)
    multi = run_census(3, 2, workers=4)
    assert solo == multi


def test_import_loads_no_process_pool():
    """The pool modules load only when run_census is given workers > 1.  Run
    in a fresh interpreter: this module imports concurrent.futures itself."""
    src = str(Path(census.__file__).resolve().parents[1])
    script = (
        "import sys, lenspp, lenspp.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _independent(R, Q, p):
    """The rank oracle: the rref of [R; Q] has two nonzero rows."""
    return len(span_key([R, Q], p)) == 2


def test_rank2_matches_the_rref_oracle_exhaustive_p3():
    vectors = list(itertools.product(range(3), repeat=4))
    for R in vectors:
        for Q in vectors:
            assert census._rank2(R, Q, 3) == _independent(R, Q, 3), (R, Q)


@pytest.mark.parametrize("p, n", [(5, 2), (7, 2), (5, 3), (7, 3)])
def test_rank2_matches_the_rref_oracle_on_seeded_pairs(p, n):
    """Random R with 0..2n leading zeros, against a random Q, every multiple
    c*R, and c*R moved by one unit in one coordinate."""
    rng = random.Random(10 * p + n)
    m = 2 * n
    for _ in range(60):
        lead = rng.randrange(m + 1)
        R = (0,) * lead + tuple(rng.randrange(p) for _ in range(m - lead))
        multiples = [tuple(c * x % p for x in R) for c in range(p)]
        moved = [
            tuple((x + (k == j)) % p for k, x in enumerate(rng.choice(multiples)))
            for j in range(m)
        ]
        for Q in [tuple(rng.randrange(p) for _ in range(m)), *multiples, *moved]:
            assert census._rank2(R, Q, p) == _independent(R, Q, p), (R, Q)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps inline."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus, pools", [(3, [3]), (None, [])])
def test_census_workers_capped_at_cpu_count(monkeypatch, cpus, pools):
    sizes = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda max_workers: _InlinePool(sizes, max_workers)
    )
    monkeypatch.setattr(census.os, "cpu_count", lambda: cpus)
    assert run_census(3, 2, workers=1000) == run_census(3, 2)
    assert sizes == pools


def _record_calls(monkeypatch, names):
    """Count the calls census makes to each of names, through its globals."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def recorder(*args, fn=getattr(census, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(census, name, recorder)
    return calls


@pytest.mark.parametrize("workers", [1, 3])
def test_census_scan_work_matches_the_record(monkeypatch, workers):
    """The scan tests each pair with R != 0 for rank 2 (81 * 80 at p = 3),
    each rank-2 pair for freeness (total_pairs, in closed form) and
    classifies each free space once (free_count), for any worker count."""
    sizes = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda max_workers: _InlinePool(sizes, max_workers)
    )
    monkeypatch.setattr(census.os, "cpu_count", lambda: 3)
    calls = _record_calls(monkeypatch, ["_rank2", "_free_by_planes", "_classify_item"])
    rec = run_census(3, 2, workers=workers)
    assert sizes == ([workers] if workers > 1 else [])
    assert (rec.total_pairs, rec.free_count) == (6240, 1344)
    assert calls == {
        "_rank2": 81 * 80,
        "_free_by_planes": rec.total_pairs,
        "_classify_item": rec.free_count,
    }


def test_sampled_census_counts_each_draw_once(monkeypatch):
    """Each distinct free draw is classified once.  A free pair has rank 2,
    so the draw makes no rank test, only one freeness test per pair."""
    calls = _record_calls(monkeypatch, ["_rank2", "_free_by_planes", "_classify_item"])
    rec = run_census(5, 2, sample=200, seed=3)
    assert rec.sampled
    assert rec.total_pairs == rec.free_count == calls["_classify_item"] == 200
    assert sum(r.count for r in rec.representatives) == 200
    assert calls["_rank2"] == 0
    assert calls["_free_by_planes"] > 200


@pytest.mark.parametrize("workers", [0, -3])
def test_run_census_refuses_workers_below_one_before_the_scan(monkeypatch, workers):
    def forbidden(*args):
        raise AssertionError("scan started before the refusal")

    monkeypatch.setattr(census, "_scan", forbidden)
    with pytest.raises(ValueError) as info:
        run_census(3, 2, workers=workers)
    assert type(info.value) is ValueError


def test_census_reversed_order_recount():
    """Grouping the stream in reversed order reproduces the counts."""
    rec = run_census(3, 2)
    groups = {}
    for d in reversed(list(enumerate_free(3, 2))):
        groups.setdefault(_classify_item(d.p, d.n, d.R, d.Q), []).append((d.R, d.Q))
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


@pytest.mark.parametrize("p", [3, 5])
def test_census_classifies_each_plane_once(p):
    """Each GL2 orbit of free pairs is one plane, classified once; each of
    its p - 1 wedges is read off once, and every free space is one wedge
    lookup."""
    gl2 = (p * p - 1) * (p * p - p)
    census._classify_wedge.cache_clear()
    census._classify_plane.cache_clear()
    rec = run_census(p, 2)
    planes = census._classify_plane.cache_info()
    wedges = census._classify_wedge.cache_info()
    assert planes.misses == rec.free_count // gl2 == {3: 28, 5: 336}[p]
    assert wedges.misses == (p - 1) * planes.misses == {3: 56, 5: 1344}[p]
    assert wedges.hits + wedges.misses == rec.free_count


def test_relabelled_spaces_share_one_plane():
    """The |GL2| bases of one plane have p - 1 wedges, one per determinant,
    and one plane entry."""
    p = 5
    (d,) = enumerate_free(p, 2, sample=1, seed=4)
    census._classify_wedge.cache_clear()
    census._classify_plane.cache_clear()
    keys = {_classify_item(p, 2, x.R, x.Q) for x in (_relabel(d, m) for m in gl2_elements(p))}
    planes = census._classify_plane.cache_info()
    wedges = census._classify_wedge.cache_info()
    assert len(keys) == 1
    assert (planes.misses, planes.hits) == (1, p - 2)
    assert (wedges.misses, wedges.hits) == (p - 1, len(gl2_elements(p)) - (p - 1))


@pytest.mark.parametrize("p, n", [(5, 2), (7, 3)])
def test_relabelling_multiplies_the_wedge_by_the_determinant(p, n):
    (d,) = enumerate_free(p, n, sample=1, seed=p + n)
    w = wedge(d.R, d.Q, p)
    for m in gl2_elements(p):
        x = _relabel(d, m)
        det = (m[0] * m[3] - m[1] * m[2]) % p
        assert wedge(x.R, x.Q, p) == tuple(det * c % p for c in w), m


def _classify_by_rref(p, n, R, Q):
    """The census key through the rref of [R; Q], as before the wedge key."""
    return census._classify_plane(p, n, span_key([R, Q], p))


def test_classify_item_matches_the_rref_path_p3():
    for d in enumerate_free(3, 2):
        assert _classify_item(3, 2, d.R, d.Q) == _classify_by_rref(3, 2, d.R, d.Q), (d.R, d.Q)


@pytest.mark.parametrize("p, n, sample", [(5, 2, 400), (7, 2, 200), (5, 3, 8)])
def test_classify_item_matches_the_rref_path_on_seeded_pairs(p, n, sample):
    census._classify_wedge.cache_clear()
    for d in enumerate_free(p, n, sample=sample, seed=17):
        assert _classify_item(p, n, d.R, d.Q) == _classify_by_rref(p, n, d.R, d.Q), (d.R, d.Q)


def test_classify_item_matches_the_rref_path_p7_n3():
    """One seeded space and relabelled copies of it, so that a single orbit
    search covers them all; the copies have several wedges."""
    rng = random.Random(17)
    (d,) = enumerate_free(7, 3, sample=1, seed=17)
    spaces = [d]
    while len(spaces) < 8:
        m = tuple(rng.randrange(7) for _ in range(4))
        if (m[0] * m[3] - m[1] * m[2]) % 7:
            spaces.append(_relabel(d, m))
    census._classify_wedge.cache_clear()
    try:
        for x in spaces:
            assert _classify_item(7, 3, x.R, x.Q) == _classify_by_rref(7, 3, x.R, x.Q), (x.R, x.Q)
    finally:
        classify._ORBITS.pop((7, 3), None)


def test_census_makes_no_per_space_rref(monkeypatch):
    """run_census(3, 2) keys its 1,344 free spaces by their wedges and reads
    rows off a wedge, never by elimination, once per wedge: wedge_span_key,
    at every module that imports it, sees the p - 1 wedges of each of the
    28 planes (56 calls on rotation vectors of length 4).  Its only other
    calls are the stabiliser walks' k-pair planes (classify._target_plane,
    on n + 1 = 3 value coordinates), one per homotopy class, and none once
    those walks are cached."""
    calls = []
    real = gfp.wedge_span_key

    def counting(*args):
        calls.append(args)
        return real(*args)

    modules = [
        module for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "lenspp" and hasattr(module, "wedge_span_key")
    ]
    assert gfp in modules and census in modules and classify in modules
    for module in modules:
        monkeypatch.setattr(module, "wedge_span_key", counting)
    census._classify_wedge.cache_clear()
    census._classify_plane.cache_clear()
    rec = run_census(3, 2)
    assert rec.free_count == 1344
    lengths = [m for _, m, _ in calls]
    assert lengths.count(4) == 56
    assert lengths.count(3) <= rec.homotopy_classes == 2
    assert len(lengths) == lengths.count(4) + lengths.count(3)


def test_census_counts_invariant_under_group_relabeling():
    """Applying one fixed basis change to every space permutes the census."""
    p, n = 3, 2
    rec = run_census(p, n)
    m = (1, 1, 0, 1)  # unipotent relabeling of the two generators
    sizes = {}
    for d in enumerate_free(p, n):
        x = _relabel(d, m)
        key = _classify_item(p, n, x.R, x.Q)
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
        key = _classify_item(d.p, d.n, d.R, d.Q)
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


@pytest.mark.parametrize("p", [5, 7, 11])
def test_verify_application_report_matches_the_residue_test(p):
    half_units = [x for x in range(1, p) if is_quadratic_residue(x, p)]
    want = sum(
        r1 * r2 * inv(q1 * q2, p) % p in half_units or -r1 * r2 * inv(q1 * q2, p) % p in half_units
        for r1, r2, q1, q2 in itertools.product(range(1, p), repeat=4)
    )
    assert verify_application(p).to_json() == {
        "p": p,
        "quadruples": (p - 1) ** 4,
        "criterion_true": want,
        "sufficiency_discrepancies": [],
        "necessity_discrepancies": [],
        "ok": True,
    }


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
        assert _classify_item(d.p, d.n, d.R, d.Q) == _classify_with_forms(d, memo), (d.R, d.Q)


@pytest.mark.parametrize("n,sample", [(2, 300), (3, 8)])
def test_classify_item_matches_form_path_p5(n, sample):
    memo = {}
    for d in enumerate_free(5, n, sample=sample, seed=11):
        assert _classify_item(d.p, d.n, d.R, d.Q) == _classify_with_forms(d, memo), (d.R, d.Q)


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
            assert _classify_item(x.p, x.n, x.R, x.Q) == _classify_with_forms(x, memo), (x.R, x.Q)
    finally:
        classify._ORBITS.pop((7, 3), None)


def test_census_kernel_builds_almost_no_forms(monkeypatch):
    created = []
    post_init = forms.HomogeneousForm.__post_init__

    def counting(self):
        created.append(1)
        post_init(self)

    ring_model.cache_clear()
    census._classify_wedge.cache_clear()
    census._classify_plane.cache_clear()
    monkeypatch.setattr(forms.HomogeneousForm, "__post_init__", counting)
    rec = run_census(3, 2)
    assert rec.free_count == 1344
    assert 0 < len(created) < 100
