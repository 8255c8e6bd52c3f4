"""Exhaustive censuses of free quotients for small (p, n), plus the
quadratic-residue verification over products of 3-dimensional lens spaces.

A census enumerates every free (R, Q), groups by the canonical form of the
k-invariant pair (homotopy classes), and refines each class by a Pontrjagin
fingerprint: the least transported reduced total class over all witnesses
onto the canonical form.  Two spaces land in the same refined cell iff they
are homeomorphic in the classifier's sense, because the transported classes
of a space form one orbit under the canonical form's self-witnesses and
orbits are equal or disjoint.  Those self-witnesses are read from the
class record classify._canonicalize returns, built with the class's orbit
from the one stabiliser walk that sized it, so each new homotopy class
costs one walk.  A space's own class is moved onto the canonical form by
relabelling its columns (forms.substitute_columns), as the homeomorphism
decider's class check moves it; a reduced class has no columns, and is
moved along the self-witnesses by classify._transport_class.

The scan (or the seeded draw) hands plain (R, Q) tuples to the grouping
step; RotationData is built only where a caller sees the spaces, in
enumerate_free.  The draw decides freeness by the n^2 cross-block minors
(actions._free_by_planes).  The scan first tests each pair with R != 0
for rank 2 (_rank2): it holds R fixed over p^(2n) consecutive Q, so it
builds R's pivot and all p multiples of R once per R (_line), and Q is on
R's line exactly when it equals the multiple with Q's entry at R's pivot,
one lookup per pair.  The scan decides freeness with one AND per pair: a
minor is zero exactly when a column of one block is zero or gives the same
point of P^1 as a column of the other, so each block's points are a
bitmask read from a table over the p^n half-vectors (_point_masks), built
once per scan.

Relabelling the two group generators multiplies [R; Q] on the left by
GL2(F_p) and leaves both keys unchanged, so a space is keyed by its 2x2
minors (the wedge R^Q, which such a relabelling multiplies by its
determinant), the reduced basis of its row space is read off the minors
once per wedge, and each plane (|GL2| free spaces, p - 1 wedges) is
classified once per process.  The free Q of one R fall into a few planes
through R, so the key is filed under every vector of the plane in a table
held for the current R (_classify_item, _keys_by_q): the scan computes one
wedge per (R, plane), not one per space, and each other space is one dict
lookup.

Outputs are deterministic byte-for-byte: the census runs in one process,
both enumerations reach the grouping step in lex order of (R, Q) (the scan
by construction, the draw sorted), so each cell keeps its count and its
first pair, which is its least, and serialization is canonical.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator

from ._record import Record
from .actions import RotationData, _free_by_planes, product_of_lens_spaces
from .classify import _canonicalize, _transport_class, homeomorphic
from .errors import CapacityError, HypothesisViolation, InvalidDimension
# product_of_linear_forms and total_pontrjagin_raw are the form-valued
# counterparts of k_pair and pontrjagin_coeffs, and apply_matrix runs inside
# classify._transport_class; the per-space kernel below does not call them,
# but perfbench/tracing.py wraps them under these names.
from .forms import apply_matrix, k_pair, product_of_linear_forms, substitute_columns
from .gfp import (
    GL2_PRIME_CAP,
    inv,
    is_quadratic_residue,
    plane_column,
    require_odd_prime,
    wedge,
    wedge_span_key,
)
from .pontrjagin import reduced_class, total_pontrjagin_raw
from .quotient_ring import ring_model

CENSUS_PRIME_CAP = 7


class ClassRepresentative(Record):
    """Least (R, Q) of one homeomorphism class, with its grouping keys."""

    __slots__ = ("R", "Q", "canonical", "fingerprint", "count")

    def to_json(self, p: int, n: int, outside_hypotheses: bool) -> dict:
        return {
            "p": p,
            "n": n,
            "R": list(self.R),
            "Q": list(self.Q),
            "canonical": [list(self.canonical[0]), list(self.canonical[1])],
            "fingerprint": [[deg, list(coeffs)] for deg, coeffs in self.fingerprint],
            "count": self.count,
            "outside_hypotheses": outside_hypotheses,
        }


class CensusRecord(Record):
    __slots__ = (
        "p",
        "n",
        "total_pairs",
        "free_count",
        "homotopy_classes",
        "homeomorphism_classes",
        "outside_hypotheses",
        "sampled",
        "representatives",
    )

    def summary_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "total_pairs": self.total_pairs,
            "free_count": self.free_count,
            "homotopy_classes": self.homotopy_classes,
            "homeomorphism_classes": self.homeomorphism_classes,
            "outside_hypotheses": self.outside_hypotheses,
            "sampled": self.sampled,
        }


def _point_masks(p: int, n: int) -> list[list[int]]:
    """masks[a][b]: the points of P^1 = GF(p) u {inf} given by the block of
    n columns (r, q) read off the a-th and b-th of the p^n half-vectors, in
    lex order, as bits: bit q/r for r != 0, bit p (inf) for (0, q), and all
    p + 1 bits for a zero column, which is dependent on every column.

    The cross-block minor of a block-1 column and a block-2 column is zero
    exactly when one of them is zero or both give the same point, so
    (R, Q) is free iff the masks of its two blocks share no bit."""
    full = (1 << (p + 1)) - 1
    bit = [[full] + [1 << p] * (p - 1)]
    bit += [[1 << (q * inv(r, p) % p) for q in range(p)] for r in range(1, p)]
    halves = list(itertools.product(range(p), repeat=n))
    masks = []
    for Rh in halves:
        row = []
        for Qh in halves:
            m = 0
            for r, q in zip(Rh, Qh):
                m |= bit[r][q]
            row.append(m)
        masks.append(row)
    return masks


def _rank2(line, Q) -> bool:
    """Q is off the line of R, given line = _line(R, p) for R != 0 and Q a
    tuple reduced mod p.

    The multiples of R are told apart by their entry at R's pivot i (the
    first nonzero entry), so Q is on the line exactly when it equals the
    multiple whose i-th entry is Q[i]: one lookup.  The scan builds R's line
    once and holds it over p^(2n) consecutive calls.  Unchecked."""
    i, multiples = line
    return Q != multiples[Q[i]]


def _line(R, p):
    """None for R = 0, else (i, multiples): R's pivot index and the p
    multiples of R, the c-th being the one whose pivot entry is c.  Built
    whole, O(p * n), once per R by the exhaustive scan, which runs only
    after _require_census has capped p at CENSUS_PRIME_CAP."""
    for i, a in enumerate(R):
        if a:
            u = inv(a, p)
            return i, tuple(tuple(c * u * x % p for x in R) for c in range(p))
    return None


def _scan(p: int, n: int, start: int, stop: int) -> Iterator[tuple[tuple, tuple]]:
    """Every free (R, Q) whose R has lex index in [start, stop) among the
    p^(2n) vectors, in lex order of (R, Q): the one enumeration of an
    exhaustive census.  Each pair with R != 0 is tested for rank 2 by one
    lookup in R's line (_rank2), built once per R, and each rank-2 pair for
    freeness by the P^1 masks of its two blocks
    (_point_masks): Q = Qa + Qb is free with R = Ra + Rb iff
    masks[Ra][Qa] & masks[Rb][Qb] == 0, the same answer as
    _free_by_planes's n^2 cross-block minors with one AND."""
    vectors = list(itertools.product(range(p), repeat=2 * n))
    h = p**n
    rows = [vectors[a * h : (a + 1) * h] for a in range(h)]
    masks = _point_masks(p, n)
    for k in range(start, stop):
        R = vectors[k]
        line = _line(R, p)
        if line is None:
            continue
        block2 = masks[k % h]
        for m1, row in zip(masks[k // h], rows):
            for m2, Q in zip(block2, row):
                if _rank2(line, Q) and not m1 & m2:
                    yield R, Q


def _draw(p: int, n: int, sample: int, seed: int) -> Iterator[tuple[tuple, tuple]]:
    """sample distinct free (R, Q), drawn from a seeded RNG in draw order;
    the request is checked by the caller (see _require_census).  A free pair
    has rank 2 (a nonzero cross-block minor makes R and Q independent), so
    freeness is the only test, run before the seen-set lookup because most
    draws are not free.

    The coordinates are the stream random.Random.randrange(p) draws, R's 2n
    coordinates first, then Q's: the top k bits of one 32-bit Mersenne
    output each, k = p.bit_length(), values >= p rejected.  They are read
    _DRAW_WORDS outputs at a time: getrandbits(32 * _DRAW_WORDS) holds that
    many consecutive outputs, the i-th in bits 32i to 32i + 31, so byte
    4i + 3 of its little-endian bytes is the top byte of output i, and one
    translate of those bytes shifts each to its top k bits (k <= 5, since
    the caller caps p at GL2_PRIME_CAP) and deletes the rejected ones.  The
    RNG is this draw's own, so outputs left unread after the last draw
    change nothing."""
    rng = random.Random(seed)
    shift = 8 - p.bit_length()
    top = bytes([b >> shift for b in range(256)])
    rejected = bytes([b for b in range(256) if b >> shift >= p])

    def chunk() -> bytes:
        outputs = rng.getrandbits(32 * _DRAW_WORDS).to_bytes(4 * _DRAW_WORDS, "little")
        return outputs[3::4].translate(top, rejected)

    coords = itertools.chain.from_iterable(iter(chunk, None))
    seen: set[tuple] = set()
    attempts = 0
    while len(seen) < sample:
        attempts += 1
        if attempts > 10_000 * sample:
            raise CapacityError("sampling failed to find enough free spaces")
        R = tuple(itertools.islice(coords, 2 * n))
        Q = tuple(itertools.islice(coords, 2 * n))
        if not _free_by_planes(R, Q, p, n) or (R, Q) in seen:
            continue
        seen.add((R, Q))
        yield R, Q


# 32-bit outputs _draw reads from its RNG at a time: a 16 KB buffer.
_DRAW_WORDS = 4096


def free_count(p: int, n: int) -> int:
    """Exact number of free (R, Q) pairs, in closed form.

    A nonzero column (r, q) is fixed by exactly one of the p + 1 cyclic
    subgroups of (Z/p)^2, and a block with a zero column by all of them; a
    pair is free iff the subgroups fixing its two blocks are disjoint sets.
    A block of n nonzero columns is fixed by exactly a given set of s
    subgroups in E_s = s! * S(n, s) * (p - 1)^n ways (S the Stirling numbers
    of the second kind), so free = sum over s, t >= 1 of
    C(p + 1, s) * C(p + 1 - s, t) * E_s * E_t."""
    stirling = [1] + [0] * n  # S(k, s) for the current k, starting at k = 0
    for k in range(1, n + 1):
        for s in range(k, 0, -1):
            stirling[s] = s * stirling[s] + stirling[s - 1]
        stirling[0] = 0
    exact = [math.factorial(s) * stirling[s] * (p - 1) ** n for s in range(n + 1)]
    return sum(
        math.comb(p + 1, s) * math.comb(p + 1 - s, t) * exact[s] * exact[t]
        for s in range(1, n + 1)
        for t in range(1, n + 1)
    )


def _require_census(p: int, n: int, sample: int | None) -> None:
    """Refuse an invalid or oversized census request before any scan or draw;
    a sample past GL2_PRIME_CAP, whose GL2 walk refuses, before free_count."""
    require_odd_prime(p)
    if not isinstance(n, int) or n < 2:
        raise InvalidDimension(f"census needs n >= 2, got {n!r}")
    if p <= n:
        raise HypothesisViolation(f"census needs p > n, got p = {p}, n = {n}")
    if sample is None:
        if p > CENSUS_PRIME_CAP or n != 2:
            raise CapacityError(
                f"exhaustive census covers p <= {CENSUS_PRIME_CAP}, n = 2 "
                f"({p ** (2 * n)}^2 raw pairs here); pass a sample size instead"
            )
        return
    # type(sample) is int: bool is an int subclass, but True is no sample size
    if type(sample) is not int or sample < 1:
        raise ValueError(f"sample size must be an integer of at least 1, got {sample!r}")
    if p > GL2_PRIME_CAP:
        raise CapacityError(
            f"sampled census canonicalises through the GL2 walk, capped at p <= {GL2_PRIME_CAP}"
        )
    population = free_count(p, n)
    if sample > population:
        raise CapacityError(
            f"sample of {sample} exceeds the {population} free spaces at p = {p}, n = {n}"
        )


def enumerate_free(
    p: int, n: int, sample: int | None = None, seed: int = 0
) -> Iterator[RotationData]:
    """Yield each validated free (R, Q) exactly once, in a fixed order.

    Exhaustive mode is _scan over all p^(4n) raw pairs, guarded at p <= 7,
    n = 2; pass sample=k, 1 <= k <= free_count(p, n), to draw k distinct
    free spaces from a seeded RNG instead (n < p <= GL2_PRIME_CAP: p <= n is
    refused with HypothesisViolation, a p past the GL2 walk's cap with
    CapacityError).  n < 2 or a non-integer n is refused as invalid.
    """
    _require_census(p, n, sample)
    pairs = _scan(p, n, 0, p ** (2 * n)) if sample is None else _draw(p, n, sample, seed)
    for R, Q in pairs:
        yield RotationData(p, n, R, Q)


@lru_cache(maxsize=2**20)
def _min_fingerprint(p: int, n: int, canon: tuple, t0: tuple) -> tuple:
    """Least transported class: minimize the reduced coefficient tuples t0
    over the canonical form's self-witness substitutions, read from the
    class record.  They include the identity, which carries the reduced t0
    to itself."""
    model = ring_model(p, n, canon)
    return min(_transport_class(model, g, t0) for g in _canonicalize(p, n, canon)[2])


def _classify_item(p: int, n: int, R: tuple, Q: tuple) -> tuple[tuple, tuple]:
    """(canonical k pair, Pontrjagin fingerprint) for the free space (R, Q).

    The key depends only on the plane spanned by R and Q, so the current R
    keeps a table from Q to key (_keys_by_q), and a space whose plane is
    filed there is one dict lookup.  The table is checked against (p, R)
    with two comparisons and replaced when either changes.  A miss keys the
    space by its 2x2 minors, the wedge R^Q (_classify_wedge), and, if the
    table already holds a key, files the key under every vector of the
    plane (_plane_vectors).  Both enumerations arrive in lex order, so R is
    held over all of its pairs: the scan computes one wedge per (R, plane)
    plus one for R's first plane, and a sample files a plane only for an R
    drawn more than once.  The pair is trusted (validated, or produced by
    the census scan or draw), so R's length fixes n."""
    global _keys_by_q
    held_p, held_R, table = _keys_by_q
    if R != held_R or p != held_p:
        table = {}
        _keys_by_q = (p, R, table)
    key = table.get(Q)
    if key is None:
        plane, key = _classify_wedge(p, n, wedge(R, Q, p))
        if table:
            table.update(dict.fromkeys(_plane_vectors(p, plane), key))
        else:
            table[Q] = key
    return key


# (p, R, table): the census keys of the spaces (R, Q) met so far, by Q, for
# the one (p, R) that _classify_item met last.  It fills the table and
# replaces the whole tuple when p or R changes, so a reader always gets the
# table of the (p, R) it read with it.
_keys_by_q: tuple = (None, None, {})


@lru_cache(maxsize=2**11)
def _plane_vectors(p: int, plane: tuple) -> tuple[tuple, ...]:
    """The p^2 vectors a*r1 + b*r2 of the plane with rref rows (r1, r2), in
    lex order of (a, b), zipped from one column per coordinate
    (gfp.plane_column), the columns classify._canonicalize builds each
    B-orbit's members from.  The bound exceeds the 1,548 free planes at
    CENSUS_PRIME_CAP, n = 2."""
    r1, r2 = plane
    return tuple(zip(*[plane_column(p, x, y) for x, y in zip(r1, r2)]))


@lru_cache(maxsize=2**18)
def _classify_wedge(p: int, n: int, w: tuple) -> tuple[tuple, tuple[tuple, tuple]]:
    """(rref rows, census key) of the plane with wedge w, the rows read off
    the minors once per wedge.  The p - 1 wedges of a plane (one per
    determinant of a change of basis) share one _classify_plane entry."""
    plane = wedge_span_key(w, 2 * n, p)
    return plane, _classify_plane(p, n, plane)


@lru_cache(maxsize=2**16)
def _classify_plane(p: int, n: int, plane: tuple) -> tuple[tuple, tuple]:
    """The census key of the free space whose rows are the two rref rows of
    plane, on coefficient tuples throughout.

    The class moved onto the canonical form by the record's witness a0 is
    that of the columns relabelled by a0 (forms.substitute_columns), reduced
    by the canonical form's ring model with pontrjagin.reduced_class, as the
    homeomorphism decider reduces its classes: no substitution matrix is
    built.
    Another basis of the plane relabels the two group generators, which
    moves the k-pair and the Pontrjagin class by one and the same linear
    substitution: the canonical form stays, and the transported class moves
    within the orbit of the canonical form's self-witnesses, over which the
    fingerprint is a minimum.  The minimum is taken on bare coefficient
    tuples and the cohomological degrees 4k are attached once, at the end:
    they sit at the same place in every candidate, so they move no minimum."""
    R, Q = plane
    canon, a0, _ = _canonicalize(p, n, k_pair(p, n, R, Q))
    t0 = reduced_class(ring_model(p, n, canon), substitute_columns(p, a0, zip(R, Q)), n - 1)
    return canon, tuple((4 * k, c) for k, c in enumerate(_min_fingerprint(p, n, canon, t0), 1))


def _group(p: int, n: int, pairs: Iterable[tuple[tuple, tuple]]) -> dict[tuple, list]:
    """{(canonical, fingerprint): [count, first R, first Q]} over the free
    pairs.  The first pair of a key is its least because the pairs arrive in
    lex order: the scan's by construction, the draw's sorted by run_census."""
    groups: dict[tuple, list] = {}
    for R, Q in pairs:
        key = _classify_item(p, n, R, Q)
        got = groups.get(key)
        if got is None:
            groups[key] = [1, R, Q]
        else:
            got[0] += 1
    return groups


def _census_chunk(p: int, n: int) -> dict[tuple, list]:
    """The groups of every free space: the exhaustive census's one scan."""
    return _group(p, n, _scan(p, n, 0, p ** (2 * n)))


def run_census(p: int, n: int, *, sample: int | None = None, seed: int = 0) -> CensusRecord:
    """Full (or sampled) census, in one process.

    free_count sums the class counts; total_pairs counts the rank-2 pairs
    tested for freeness, (p^(2n) - 1)(p^(2n) - p), or the sample size."""
    _require_census(p, n, sample)
    size = p ** (2 * n)
    if sample is None:
        groups = _census_chunk(p, n)
    else:
        groups = _group(p, n, sorted(_draw(p, n, sample, seed)))
    reps = tuple(
        ClassRepresentative(R, Q, canonical, fingerprint, count)
        for (canonical, fingerprint), (count, R, Q) in sorted(groups.items())
    )
    return CensusRecord(
        p=p,
        n=n,
        total_pairs=sample if sample is not None else (size - 1) * (size - p),
        free_count=sum(cnt for cnt, _, _ in groups.values()),
        homotopy_classes=len({key[0] for key in groups}),
        homeomorphism_classes=len(groups),
        outside_hypotheses=not (p > 3 and p > n + 1),
        sampled=sample is not None,
        representatives=reps,
    )


def write_census(record: CensusRecord, out_dir: str | Path) -> list[Path]:
    """Write census_p{p}_n{n}.ndjson (one representative per line) and
    summary.csv; byte-identical for identical inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ndjson = out / f"census_p{record.p}_n{record.n}.ndjson"
    with open(ndjson, "w", newline="\n") as fh:
        for rep in record.representatives:
            fh.write(
                json.dumps(
                    rep.to_json(record.p, record.n, record.outside_hypotheses),
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )
    summary = out / "summary.csv"
    with open(summary, "w", newline="\n") as fh:
        fh.write("p,n,free_count,homotopy_classes,homeomorphism_classes\n")
        fh.write(
            f"{record.p},{record.n},{record.free_count},"
            f"{record.homotopy_classes},{record.homeomorphism_classes}\n"
        )
    return [ndjson, summary]


class ApplicationReport(Record):
    """Exhaustive check of the quadratic-residue homeomorphism criterion on
    products of 3-dimensional lens spaces L(p;1,r1) x L(p;1,r2)."""

    __slots__ = (
        "p",
        "quadruples",
        "criterion_true",
        "sufficiency_discrepancies",
        "necessity_discrepancies",
    )

    @property
    def ok(self) -> bool:
        return not self.sufficiency_discrepancies and not self.necessity_discrepancies

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "quadruples": self.quadruples,
            "criterion_true": self.criterion_true,
            "sufficiency_discrepancies": [list(t) for t in self.sufficiency_discrepancies],
            "necessity_discrepancies": [list(t) for t in self.necessity_discrepancies],
            "ok": self.ok,
        }


def verify_application(p: int) -> ApplicationReport:
    """For every (r1, r2, q1, q2) in units^4 compare the classifier's
    homeomorphism verdict on L(p;1,r1) x L(p;1,r2) vs L(p;1,q1) x L(p;1,q2)
    with the criterion: +-(r1*r2)/(q1*q2) is a quadratic residue.  p = 3
    is outside the deciders' hypotheses (p > 3), refused as such."""
    require_odd_prime(p)
    if p <= 3:
        raise HypothesisViolation(f"application verification needs p > 3, got p = {p}")
    if p not in (5, 7, 11):
        raise CapacityError(f"application verification supported for p in {{5, 7, 11}}, got {p}")
    quadruples = 0
    criterion_true = 0
    sufficiency = []
    necessity = []
    units = range(1, p)
    spaces = {(a, b): product_of_lens_spaces(p, (1, a), (1, b)) for a in units for b in units}
    for r1 in units:
        for r2 in units:
            X = spaces[r1, r2]
            for q1 in units:
                for q2 in units:
                    quadruples += 1
                    ratio = r1 * r2 * inv(q1 * q2, p)
                    criterion = is_quadratic_residue(ratio, p) or is_quadratic_residue(-ratio, p)
                    Y = spaces[q1, q2]
                    verdict = homeomorphic(X, Y).equivalent
                    if criterion:
                        criterion_true += 1
                        if not verdict:
                            sufficiency.append((r1, r2, q1, q2))
                    elif verdict:
                        necessity.append((r1, r2, q1, q2))
    return ApplicationReport(
        p=p,
        quadruples=quadruples,
        criterion_true=criterion_true,
        sufficiency_discrepancies=tuple(sufficiency),
        necessity_discrepancies=tuple(necessity),
    )
