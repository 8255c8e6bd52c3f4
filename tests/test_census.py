import functools
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
from lenspp import actions, census, classify, cli, forms, gfp
from lenspp.classify import (
    Verdict,
    canonical_form,
    homeomorphic,
    homotopy_equivalent,
    lens_homotopy_equivalent,
)
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
        (5, 2.0, None, InvalidDimension),
        (5, 2.0, 3, InvalidDimension),
        (5, 2, 2.5, ValueError),
        (5, 2, 5.0, ValueError),
        (5, 2, True, ValueError),
        (37, 2, 1, CapacityError),
        (1_000_003, 300, 1, CapacityError),
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


@pytest.mark.parametrize(
    "p, n, seed, digest, sample",
    [
        (3, 2, 2, "cf7bbb01e57cf92e0489c2e36cab9a16c87d77e08fc3ba20c7732fa614dd3403", 1000),
        (5, 2, 1, "a36a6ca907cf7f09be17f7a89a92c30a50b24e823198bf422caee593122a5f33", 20000),
        (7, 2, 1, "0bc6dd5abfb316c9454c0cf47487f75025e691d9ed40e5eb105aa95f061ff679", 1000),
        (7, 3, 0, "f8058054604fc5561fc291e991a583c7d0054893c053eddf8f6b84fb83279dda", 40),
        (11, 2, 0, "57d0250cc2a025b4771f33c05df3780ddad5aaa67f8a0c281106c4f25d36eabb", 300),
    ],
)
def test_sampled_census_bytes(tmp_path, p, n, seed, digest, sample):
    """Samples whose draws reject words >= p at other widths than (5, 3),
    pinned as `census p n --sample K --seed S` wrote them: the samples of
    1,000 when each coordinate came from random.Random.randrange, the
    (7, 3) sample, whose 20 homotopy classes each build one class record at
    n = 3, and the (11, 2) sample (2 homotopy and 12 homeomorphism classes),
    where lam^4 takes the values 1, 3, 4, 5 and 9, none of them -1, so the
    orbit pass's scalar fold moves keys."""
    try:
        assert _ndjson_sha256(run_census(p, n, sample=sample, seed=seed), tmp_path) == digest
    finally:
        classify._ORBITS.pop((7, 3), None)  # its 20 orbits hold ~280 MB
        classify._ORBITS.pop((11, 2), None)  # its 2 orbits hold ~200 MB


# oracle: the seeded draw as census._draw ran it before it read the
# coordinates off whole Mersenne words: one randrange(p) call per coordinate.

def _oracle_draw(p, n, sample, seed, rng=None):
    rng = random.Random(seed) if rng is None else rng
    seen = set()
    attempts = 0
    while len(seen) < sample:
        attempts += 1
        if attempts > 10_000 * sample:
            raise CapacityError("sampling failed to find enough free spaces")
        R = tuple(rng.randrange(p) for _ in range(2 * n))
        Q = tuple(rng.randrange(p) for _ in range(2 * n))
        if (R, Q) in seen or not census._free_by_planes(R, Q, p, n):
            continue
        seen.add((R, Q))
        yield R, Q


@pytest.mark.parametrize("p, n", [(3, 2), (5, 3), (7, 2), (13, 2), (17, 2), (31, 2), (11, 4)])
def test_draw_is_the_randrange_stream(p, n):
    """Words of 2 to 5 bits, with the heaviest rejection (15 of 32) at p = 17;
    at (3, 2) a sample of 200 from 1,344 free spaces also redraws repeats."""
    for seed in range(5):
        assert list(census._draw(p, n, 200, seed)) == list(_oracle_draw(p, n, 200, seed))


class _CountingRandom(random.Random):
    """random.Random counting the 32-bit outputs getrandbits reads."""

    outputs = 0

    def getrandbits(self, k):
        self.outputs += -(-k // 32)
        return super().getrandbits(k)


@pytest.mark.parametrize("p, n, sample, seed", [(5, 3, 3000, 0), (3, 2, 1344, 1)])
def test_draw_is_the_randrange_stream_across_chunks(p, n, sample, seed):
    """_draw reads census._DRAW_WORDS outputs at a time.  The pinned seed-0
    sample at (5, 3) and the whole population at (3, 2) read dozens of
    chunks, and both equal the oracle exactly."""
    rng = _CountingRandom(seed)
    want = list(_oracle_draw(p, n, sample, seed, rng))
    assert list(census._draw(p, n, sample, seed)) == want
    assert len(set(want)) == sample
    assert sample < free_count(p, n) or sorted(want) == list(census._scan(p, n, 0, p ** (2 * n)))
    assert rng.outputs > 50 * census._DRAW_WORDS


@pytest.mark.parametrize("words", [1, 3, 5])
def test_draw_is_the_randrange_stream_in_small_chunks(monkeypatch, words):
    """Chunks of 1 to 5 outputs, most shorter than one (R, Q) of 12
    coordinates and some emptied by rejection, give the same stream."""
    monkeypatch.setattr(census, "_DRAW_WORDS", words)
    assert list(census._draw(5, 3, 300, words)) == list(_oracle_draw(5, 3, 300, words))


def test_draw_refuses_after_ten_thousand_attempts_per_space(monkeypatch):
    """With no free draw, both draws test the same 20,000 pairs for a sample
    of 2 and refuse the next attempt."""
    tested = []
    monkeypatch.setattr(census, "_free_by_planes", lambda R, Q, p, n: tested.append((R, Q)) or False)
    for draw in (census._draw, _oracle_draw):
        with pytest.raises(CapacityError, match="sampling failed"):
            next(draw(5, 2, 2, 4))
    assert len(tested) == 40_000
    assert tested[:20_000] == tested[20_000:]


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


def test_import_loads_no_process_pool():
    """Neither importing lenspp nor running a census loads a process pool,
    or dataclasses and the modules it pulls in to generate code: the record
    classes are plain slotted classes.  Run in a fresh interpreter: pytest
    may have imported these modules."""
    src = str(Path(census.__file__).resolve().parents[1])
    unwanted = (
        "concurrent.futures", "multiprocessing", "dataclasses", "inspect", "ast", "dis", "tokenize"
    )
    script = (
        "import sys, lenspp, lenspp.cli; lenspp.census.run_census(3, 2); "
        f"print([m for m in {unwanted!r} if m in sys.modules])"
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


def _scan_rank2(line, Q):
    """The scan's rank test on R's line (census._line): None exactly for
    R = 0, which the scan skips, else one census._rank2 lookup."""
    return line is not None and census._rank2(line, Q)


def test_rank2_matches_the_rref_oracle_exhaustive_p3():
    vectors = list(itertools.product(range(3), repeat=4))
    for R in vectors:
        line = census._line(R, 3)
        assert (line is None) == (not any(R)), R
        for Q in vectors:
            assert _scan_rank2(line, Q) == _independent(R, Q, 3), (R, Q)


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
            assert _scan_rank2(census._line(R, p), Q) == _independent(R, Q, p), (R, Q)


def _record_calls(monkeypatch, names):
    """Count the calls census makes to each of names, through its globals."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def recorder(*args, fn=getattr(census, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(census, name, recorder)
    return calls


def test_census_scan_work_matches_the_record(monkeypatch):
    """The scan tests each pair with R != 0 for rank 2 (81 * 80 at p = 3,
    625 * 624 at p = 5), decides freeness by the blocks' P^1 masks with no
    _free_by_planes call, and classifies each free space once (free_count).
    The p = 5 counts are the ones perfbench/expected.json gates for
    census_p5 (census.rank2.calls, census.classify_item.calls)."""
    for p, total, free, rank2 in [(3, 6240, 1344, 6480), (5, 386880, 161280, 390000)]:
        calls = _record_calls(monkeypatch, ["_rank2", "_free_by_planes", "_classify_item"])
        rec = run_census(p, 2)
        monkeypatch.undo()
        assert (rec.total_pairs, rec.free_count) == (total, free)
        assert calls == {"_rank2": rank2, "_free_by_planes": 0, "_classify_item": free}, p


def _rank2_loop(R, Q, p):
    """The oracle of census._rank2, a plain loop with no cache: R != 0 and
    some a*Q[j] - b*R[j] is nonzero, with (a, b) = (R[i], Q[i]) at R's
    first nonzero entry."""
    for i, a in enumerate(R):
        if a:
            b = Q[i]
            for x, y in zip(R, Q):
                if (a * y - b * x) % p:
                    return True
            return False
    return False


@pytest.mark.parametrize("p", [3, 5])
def test_rank2_matches_the_loop_oracle_exhaustive(p):
    """Every pair at (p, 2), once with R fixed over each run of Q (the
    scan's order) and once with Q fixed over each run of R, each R's line
    built once and held for the whole pass."""
    vectors = list(itertools.product(range(p), repeat=4))
    lines = {R: census._line(R, p) for R in vectors}
    for outer_is_R in (True, False):
        pairs = [(u, v) if outer_is_R else (v, u) for u in vectors for v in vectors]
        got = [_scan_rank2(lines[R], Q) for R, Q in pairs]
        assert got == [_rank2_loop(R, Q, p) for R, Q in pairs], outer_is_R


@functools.lru_cache(maxsize=None)
def _minor_filter(p, n, start, stop):
    """The scan's oracle: every (R, Q) with R's lex index in [start, stop),
    in lex order, kept iff _rank2_loop and then the n^2 cross-block minors
    of _free_by_planes pass."""
    vectors = list(itertools.product(range(p), repeat=2 * n))
    return [
        (R, Q)
        for R in vectors[start:stop]
        if any(R)
        for Q in vectors
        if _rank2_loop(R, Q, p) and actions._free_by_planes(R, Q, p, n)
    ]


@pytest.mark.parametrize("p", [3, 5])
def test_scan_equals_the_minor_filter_exhaustive(p):
    """390,625 pairs at p = 5, as one ordered sequence."""
    size = p**4
    assert list(census._scan(p, 2, 0, size)) == _minor_filter(p, 2, 0, size)


@pytest.mark.parametrize("p, n, width", [(7, 2, 30), (3, 3, 20), (5, 3, 4)])
def test_scan_equals_the_minor_filter_on_seeded_slices(p, n, width):
    """The first and last R-slices (R = 0 and the top half-vectors) and
    three seeded ones; n = 3 has masks of three columns per block."""
    size = p ** (2 * n)
    rng = random.Random(p * n)
    starts = [0, size - width, *(rng.randrange(size - width) for _ in range(3))]
    for start in starts:
        got = list(census._scan(p, n, start, start + width))
        assert got == _minor_filter(p, n, start, start + width), start


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


def _group_by_least_pair(p, n, pairs):
    """The grouping oracle: {key: [count, least R, least Q]}, the pairs taken
    in the order given and each key's least pair kept by comparison."""
    groups = {}
    for R, Q in pairs:
        key = _classify_item(p, n, R, Q)
        got = groups.setdefault(key, [0, R, Q])
        got[0] += 1
        if (R, Q) < (got[1], got[2]):
            got[1], got[2] = R, Q
    return groups


@pytest.mark.parametrize("p, sample, repeats", [(5, 20000, 46), (7, 2000, 1)])
def test_sampled_census_keeps_each_class_least_pair(p, sample, repeats):
    """census._group keeps each key's first pair, the least only because
    run_census sorts the draw.  At these samples no class's first draw is
    its least pair, so grouping in draw order keeps other pairs in every
    class; the (5, 2) draw also repeats R on 46 consecutive draws, which
    hold R's table in draw order too."""
    drawn = list(census._draw(p, 2, sample, 1))
    assert sum(a[0] == b[0] for a, b in zip(drawn, drawn[1:])) == repeats
    least = _group_by_least_pair(p, 2, drawn)
    first = census._group(p, 2, drawn)
    assert first.keys() == least.keys()
    assert all(first[key][0] == got[0] and first[key][1:] != got[1:] for key, got in least.items())
    rec = run_census(p, 2, sample=sample, seed=1)
    assert {(r.canonical, r.fingerprint): [r.count, r.R, r.Q] for r in rec.representatives} == least


def _relabel(d, m):
    """d with the group generators changed by m: same homotopy class."""
    a, b, c, e = m
    R = tuple((a * r + b * q) % d.p for r, q in zip(d.R, d.Q))
    Q = tuple((c * r + e * q) % d.p for r, q in zip(d.R, d.Q))
    return validate(RotationData(d.p, d.n, R, Q))


def _fresh_keys_by_q(monkeypatch):
    """Start _classify_item from an empty per-R table."""
    monkeypatch.setattr(census, "_keys_by_q", (None, None, {}))


@pytest.mark.parametrize("p", [3, 5])
def test_census_classifies_each_plane_once(monkeypatch, p):
    """Each GL2 orbit of free pairs is one plane, classified once; each of
    its p - 1 wedges is read off once.  The scan looks a wedge up once per
    (R, plane), for each of the p^2 - 1 nonzero R of a free plane, plus once
    more per R: its first Q only keys itself, and the next miss files a
    plane.  The R met are the p^4 - (2p - 1)^2 vectors without a zero in
    both blocks (zeros in both make a block-1 and a block-2 column (0, q),
    which are dependent)."""
    gl2 = (p * p - 1) * (p * p - p)
    census._classify_wedge.cache_clear()
    census._classify_plane.cache_clear()
    _fresh_keys_by_q(monkeypatch)
    census._plane_vectors.cache_clear()
    rec = run_census(p, 2)
    planes = census._classify_plane.cache_info()
    wedges = census._classify_wedge.cache_info()
    filed = census._plane_vectors.cache_info()
    assert planes.misses == rec.free_count // gl2 == {3: 28, 5: 336}[p]
    assert wedges.misses == (p - 1) * planes.misses == {3: 56, 5: 1344}[p]
    rs = p**4 - (2 * p - 1) ** 2
    assert rs == len({R for R, _ in census._scan(p, 2, 0, p**4)}) == {3: 56, 5: 544}[p]
    assert wedges.hits + wedges.misses == (p * p - 1) * planes.misses + rs == {3: 280, 5: 8608}[p]
    assert (filed.misses, filed.hits + filed.misses) == (planes.misses, (p * p - 1) * planes.misses)


def test_relabelled_spaces_share_one_plane(monkeypatch):
    """The |GL2| bases of one plane have p - 1 wedges, one per determinant,
    and one plane entry.  gl2_elements lists the matrices in row-major
    order, so the new R = a*R + b*Q stays fixed over the p^2 - p second rows
    (c, e): each of the p^2 - 1 first rows (a, b) looks two wedges up, its
    first space keying only itself and its second filing the plane."""
    p = 5
    (d,) = enumerate_free(p, 2, sample=1, seed=4)
    census._classify_wedge.cache_clear()
    census._classify_plane.cache_clear()
    _fresh_keys_by_q(monkeypatch)
    keys = {_classify_item(p, 2, x.R, x.Q) for x in (_relabel(d, m) for m in gl2_elements(p))}
    planes = census._classify_plane.cache_info()
    wedges = census._classify_wedge.cache_info()
    assert len(keys) == 1
    assert (planes.misses, planes.hits) == (1, p - 2)
    assert (wedges.misses, wedges.hits) == (p - 1, 2 * (p * p - 1) - (p - 1))


def _assert_classify_item_is_the_wedge_path(p, n, pairs):
    """_classify_item, through its per-R table, gives each pair the key of
    the direct path: the plane read off the pair's own wedge.  Returns the
    per-R table each call left held, the empty one before the first call
    included."""
    direct = {}
    tables = [census._keys_by_q[2]]
    for R, Q in pairs:
        w = wedge(R, Q, p)
        if w not in direct:
            direct[w] = census._classify_plane(p, n, gfp.wedge_span_key(w, 2 * n, p))
        assert _classify_item(p, n, R, Q) == direct[w], (R, Q)
        tables.append(census._keys_by_q[2])
    return tables


@pytest.mark.parametrize("p", [3, 5])
def test_classify_item_matches_the_wedge_path_exhaustive(monkeypatch, p):
    """Every free pair, first in scan order, where R's table fills plane by
    plane, then with Q outermost, where R changes on almost every call.  In
    both orders the table is replaced exactly when R changes, the first
    call included."""
    pairs = list(census._scan(p, 2, 0, p**4))
    by_q = sorted(pairs, key=lambda pair: (pair[1], pair[0]))
    for order in (pairs, by_q):
        _fresh_keys_by_q(monkeypatch)
        tables = _assert_classify_item_is_the_wedge_path(p, 2, order)
        rs = [None] + [R for R, _ in order]
        replaced = [a is not b for a, b in zip(tables, tables[1:])]
        assert replaced == [a != b for a, b in zip(rs, rs[1:])]
    assert sum(replaced) > len(pairs) // 2


def test_classify_item_matches_the_wedge_path_on_seeded_r_slices_p7(monkeypatch):
    rng = random.Random(7)
    _fresh_keys_by_q(monkeypatch)
    checked = 0
    for k in rng.sample(range(1, 7**4), 8):
        pairs = list(census._scan(7, 2, k, k + 1))
        _assert_classify_item_is_the_wedge_path(7, 2, pairs)
        checked += len(pairs)
    assert checked > 5000


def test_sampled_census_files_a_plane_only_for_a_repeated_r(monkeypatch):
    """run_census classifies a sample in lex order, so an R drawn k times is
    held over its k pairs: its first Q keys only itself, and each later Q
    off the planes filed so far files its own, so each draw of an R after
    its first files at most one plane.  The seed-0 sample at (5, 3) draws
    2,640 distinct R in 3,000 draws, and its 360 repeats file 360 planes
    (359 distinct)."""
    drawn = sorted(census._draw(5, 3, 3000, 0))
    filings = 0
    for R, group in itertools.groupby(drawn, key=lambda pair: pair[0]):
        planes = [span_key([R, Q], 5) for _, Q in group]
        filings += len(set(planes[1:]))
    repeats = len(drawn) - len({R for R, _ in drawn})
    assert filings == repeats == 360
    _fresh_keys_by_q(monkeypatch)
    census._plane_vectors.cache_clear()
    run_census(5, 3, sample=3000, seed=0)
    filed = census._plane_vectors.cache_info()
    assert (filed.hits + filed.misses, filed.misses) == (filings, 359)


def test_plane_vector_cache_holds_every_free_plane_at_the_cap(monkeypatch):
    """An exhaustive census at CENSUS_PRIME_CAP files each of its free planes
    p^2 - 1 times, once per nonzero R, so the plane-vector cache must hold
    all of them; the per-R table holds one R, so an R met again after
    another starts from an empty table and looks its wedge up again."""
    p = census.CENSUS_PRIME_CAP
    planes = free_count(p, 2) // len(gl2_elements(p))
    assert planes == 1548
    assert census._plane_vectors.cache_parameters()["maxsize"] >= planes
    assert gfp.plane_column.cache_parameters()["maxsize"] >= gfp.GL2_PRIME_CAP**2
    (R1, Q1), (R2, Q2) = [next(census._scan(p, 2, k, k + 1)) for k in (1000, 2000)]
    _fresh_keys_by_q(monkeypatch)
    lookups = []
    for R, Q in [(R1, Q1), (R1, Q1), (R2, Q2), (R1, Q1)]:
        _classify_item(p, 2, R, Q)
        info = census._classify_wedge.cache_info()
        lookups.append(info.hits + info.misses)
        held_p, held_R, table = census._keys_by_q
        assert (held_p, held_R, list(table)) == (p, R, [Q])
    assert [b - a for a, b in zip(lookups, lookups[1:])] == [0, 1, 1]


@pytest.mark.parametrize("p, n", [(5, 2), (7, 3), (31, 2)])
def test_plane_vectors_are_the_combinations_of_the_rows(p, n):
    """The column-wise build gives every a*r1 + b*r2 in lex order of (a, b)."""
    for d in enumerate_free(p, n, sample=20, seed=p + n):
        r1, r2 = span_key([d.R, d.Q], p)
        want = tuple(
            tuple((a * x + b * y) % p for x, y in zip(r1, r2)) for a in range(p) for b in range(p)
        )
        assert census._plane_vectors(p, (r1, r2)) == want, (r1, r2)


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
    p2 = write_census(run_census(3, 2), d2)
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


def _flip_verdicts(monkeypatch, flips):
    """Make census.homeomorphic answer the opposite on the quadruples flips,
    each (r1, r2, q1, q2) naming L(p;1,r1) x L(p;1,r2) vs L(p;1,q1) x L(p;1,q2)."""
    real = census.homeomorphic

    def flipped(X, Y, marked=False):
        verdict = real(X, Y, marked)
        if (X.R[1], X.Q[3], Y.R[1], Y.Q[3]) in flips:
            return Verdict(
                not verdict.equivalent, verdict.witness, verdict.checked_pairs, verdict.level
            )
        return verdict

    monkeypatch.setattr(census, "homeomorphic", flipped)


# at p = 5: 1*1/(1*1) = 1 is a square, and +-1*1/(1*2) = 3, 2 are not
_POSITIVE, _NEGATIVE = (1, 1, 1, 1), (1, 1, 1, 2)


def test_verify_application_lists_the_quadruples_the_classifier_disputes(monkeypatch):
    _flip_verdicts(monkeypatch, {_POSITIVE, _NEGATIVE})
    report = verify_application(5)
    assert report.sufficiency_discrepancies == (_POSITIVE,)
    assert report.necessity_discrepancies == (_NEGATIVE,)
    assert not report.ok
    assert (report.quadruples, report.criterion_true) == (256, 128)
    doc = report.to_json()
    assert doc["ok"] is False
    assert doc["sufficiency_discrepancies"] == [list(_POSITIVE)]
    assert doc["necessity_discrepancies"] == [list(_NEGATIVE)]


def test_verify_application_command_exits_1_on_a_discrepancy(monkeypatch, capsys):
    _flip_verdicts(monkeypatch, {_POSITIVE, _NEGATIVE})
    assert cli.main(["verify-application", "5"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["ok"] is False
    assert err.strip() == "p=5: 1 sufficiency and 1 necessity discrepancies"


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_application_criterion_is_the_lens_homotopy_baseline(p):
    """verify_application's criterion, +-r1*r2/(q1*q2) a square, is
    L(p;r1,r2) ~ L(p;q1,q2) by the lens baseline, which asks whether
    +-q1*q2/(r1*r2) is a square: x is a square iff 1/x is."""
    for r1, r2, q1, q2 in itertools.product(range(1, p), repeat=4):
        ratio = r1 * r2 * inv(q1 * q2, p)
        criterion = is_quadratic_residue(ratio, p) or is_quadratic_residue(-ratio, p)
        assert criterion == lens_homotopy_equivalent(p, 2, (r1, r2), (q1, q2)), (r1, r2, q1, q2)


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
    canon, a0, _ = classify._canonicalize(p, n, k_invariant(d).coeff_pair())
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
