"""Exhaustive censuses of free quotients for small (p, n), plus the
quadratic-residue verification over products of 3-dimensional lens spaces.

A census enumerates every free (R, Q), groups by the canonical form of the
k-invariant pair (homotopy classes), and refines each class by a Pontrjagin
fingerprint: the least transported reduced total class over all witnesses
onto the canonical form.  Two spaces land in the same refined cell iff they
are homeomorphic in the classifier's sense, because the transported classes
of a space form one orbit under the canonical form's self-witnesses and
orbits are equal or disjoint.  Those self-witnesses come from the one
stabiliser walk that sized the class's orbit when it was built (see
classify._canonicalize), so each new homotopy class costs one walk.  Every
transport of a class along a substitution goes through
classify._transport_class, the helper behind the homeomorphism decider's
class check.

The scan (or the seeded draw) hands plain (R, Q) tuples to the grouping
step; RotationData is built only where a caller sees the spaces, in
enumerate_free.

Relabelling the two group generators multiplies [R; Q] on the left by
GL2(F_p) and leaves both keys unchanged, so each space is keyed by its 2x2
minors (the wedge R^Q, which such a relabelling multiplies by its
determinant), the reduced basis of its row space is read off the minors
once per wedge, and each plane (|GL2| free spaces, p - 1 wedges) is
classified once per process.

Outputs are deterministic byte-for-byte: the enumeration order is fixed,
workers merge their groups by class counts and least pairs alone (sums and
minima, in any order), and serialization is canonical.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator

from .actions import RotationData, _free_by_planes, _rank2, product_of_lens_spaces
from .classify import _canonicalize, _self_witnesses, _transport_class, homeomorphic
from .errors import CapacityError, HypothesisViolation, InvalidDimension
# product_of_linear_forms and total_pontrjagin_raw are the form-valued
# counterparts of k_pair and pontrjagin_coeffs, and apply_matrix runs inside
# classify._transport_class; the per-space kernel below does not call them,
# but perfbench/tracing.py wraps them under these names.
from .forms import apply_matrix, k_pair, product_of_linear_forms
from .gfp import inv, is_quadratic_residue, require_odd_prime, wedge, wedge_span_key
from .pontrjagin import pontrjagin_coeffs, total_pontrjagin_raw
from .quotient_ring import ring_model

CENSUS_PRIME_CAP = 7


@dataclass(frozen=True)
class ClassRepresentative:
    """Least (R, Q) of one homeomorphism class, with its grouping keys."""

    R: tuple[int, ...]
    Q: tuple[int, ...]
    canonical: tuple[tuple[int, ...], tuple[int, ...]]
    fingerprint: tuple[tuple[int, tuple[int, ...]], ...]
    count: int

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


@dataclass(frozen=True)
class CensusRecord:
    p: int
    n: int
    total_pairs: int
    free_count: int
    homotopy_classes: int
    homeomorphism_classes: int
    outside_hypotheses: bool
    sampled: bool
    representatives: tuple[ClassRepresentative, ...]

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


def _scan(p: int, n: int, start: int, stop: int) -> Iterator[tuple[tuple, tuple]]:
    """Every free (R, Q) whose R has lex index in [start, stop) among the
    p^(2n) vectors, in lex order of (R, Q): the one enumeration of an
    exhaustive census.  Each pair with R != 0 is tested for rank 2, each
    rank-2 pair for freeness."""
    vectors = list(itertools.product(range(p), repeat=2 * n))
    for R in vectors[start:stop]:
        if not any(R):
            continue
        for Q in vectors:
            if _rank2(R, Q, p) and _free_by_planes(R, Q, p, n):
                yield R, Q


def _draw(p: int, n: int, sample: int, seed: int) -> Iterator[tuple[tuple, tuple]]:
    """sample distinct free (R, Q), drawn from a seeded RNG in draw order;
    the request is checked by the caller (see _require_census).  A free pair
    has rank 2 (a nonzero cross-block minor makes R and Q independent), so
    freeness is the only test."""
    rng = random.Random(seed)
    seen: set[tuple] = set()
    attempts = 0
    while len(seen) < sample:
        attempts += 1
        if attempts > 10_000 * sample:
            raise CapacityError("sampling failed to find enough free spaces")
        R = tuple(rng.randrange(p) for _ in range(2 * n))
        Q = tuple(rng.randrange(p) for _ in range(2 * n))
        if (R, Q) in seen or not _free_by_planes(R, Q, p, n):
            continue
        seen.add((R, Q))
        yield R, Q


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


def _require_census(p: int, n: int, sample: int | None, workers: int = 1) -> None:
    """Refuse an invalid or oversized census request before any scan or draw."""
    require_odd_prime(p)
    if n < 2:
        raise InvalidDimension(f"census needs n >= 2, got {n}")
    if p <= n:
        raise HypothesisViolation(f"census needs p > n, got p = {p}, n = {n}")
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    if sample is None:
        if p > CENSUS_PRIME_CAP or n != 2:
            raise CapacityError(
                f"exhaustive census covers p <= {CENSUS_PRIME_CAP}, n = 2 "
                f"({p ** (2 * n)}^2 raw pairs here); pass a sample size instead"
            )
        return
    if sample < 1:
        raise ValueError(f"sample size must be at least 1, got {sample}")
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
    free spaces from a seeded RNG instead (any p > n: the k-invariant and
    the witness walk need it, and p <= n is refused with
    HypothesisViolation).  n < 2 is refused as invalid.
    """
    _require_census(p, n, sample)
    pairs = _scan(p, n, 0, p ** (2 * n)) if sample is None else _draw(p, n, sample, seed)
    for R, Q in pairs:
        yield RotationData(p, n, R, Q)


@lru_cache(maxsize=2**20)
def _min_fingerprint(p: int, n: int, canon: tuple, t0: tuple) -> tuple:
    """Least transported class: minimize the reduced coefficient tuples t0
    over the canonical form's self-witness substitutions, recorded by the
    walk that built its orbit."""
    model = ring_model(p, n, canon)
    return min([t0, *(_transport_class(model, g, t0) for g in _self_witnesses(p, n, canon))])


def _classify_item(p: int, n: int, R: tuple, Q: tuple) -> tuple[tuple, tuple]:
    """(canonical k pair, Pontrjagin fingerprint) for the free space (R, Q).

    The key depends only on the plane spanned by R and Q, so the space is
    keyed by its 2x2 minors, the wedge R^Q, and this is one cached lookup;
    the pair is trusted (validated, or produced by the census scan or draw)."""
    return _classify_wedge(p, n, wedge(R, Q, p))


@lru_cache(maxsize=2**18)
def _classify_wedge(p: int, n: int, w: tuple) -> tuple[tuple, tuple]:
    """The census key of the plane with wedge w, whose rref rows are read
    off the minors once per wedge.  The p - 1 wedges of a plane (one per
    determinant of a change of basis) share one _classify_plane entry."""
    return _classify_plane(p, n, wedge_span_key(w, 2 * n, p))


@lru_cache(maxsize=2**16)
def _classify_plane(p: int, n: int, plane: tuple) -> tuple[tuple, tuple]:
    """The census key of the free space whose rows are the two rref rows of
    plane, on coefficient tuples throughout.

    Another basis of the plane relabels the two group generators, which
    moves the k-pair and the Pontrjagin class by one and the same linear
    substitution: the canonical form stays, and the transported class moves
    within the orbit of the canonical form's self-witnesses, over which the
    fingerprint is a minimum.  The minimum is taken on bare coefficient
    tuples and the cohomological degrees 4k are attached once, at the end:
    they sit at the same place in every candidate, so they move no minimum."""
    R, Q = plane
    canon, a0 = _canonicalize(p, n, k_pair(p, n, R, Q))
    raw = pontrjagin_coeffs(p, zip(R, Q), n - 1)
    t0 = _transport_class(ring_model(p, n, canon), a0, raw)
    return canon, tuple((4 * k, c) for k, c in enumerate(_min_fingerprint(p, n, canon, t0), 1))


def _add(groups: dict, key: tuple, count: int, R: tuple, Q: tuple) -> None:
    """Merge count members with least pair (R, Q) into the cell at key."""
    got = groups.get(key)
    if got is None:
        groups[key] = [count, R, Q]
    else:
        got[0] += count
        if (R, Q) < (got[1], got[2]):
            got[1], got[2] = R, Q


def _group(p: int, n: int, pairs: Iterable[tuple[tuple, tuple]]) -> dict[tuple, list]:
    """{(canonical, fingerprint): [count, min R, min Q]} over the free pairs."""
    groups: dict[tuple, list] = {}
    for R, Q in pairs:
        _add(groups, _classify_item(p, n, R, Q), 1, R, Q)
    return groups


def _census_chunk(args: tuple) -> dict[tuple, list]:
    """The groups of the free spaces whose R-index lies in [start, stop)."""
    p, n, start, stop = args
    return _group(p, n, _scan(p, n, start, stop))


def run_census(
    p: int, n: int, workers: int = 1, sample: int | None = None, seed: int = 0
) -> CensusRecord:
    """Full (or sampled) census; identical results for any worker count.

    Each worker (at most one per CPU) groups one slice of the R-indices, a
    sample is grouped as one slice, and the slices' groups are merged.
    free_count sums the class counts; total_pairs counts the rank-2 pairs
    tested for freeness, (p^(2n) - 1)(p^(2n) - p), or the sample size."""
    _require_census(p, n, sample, workers)
    size = p ** (2 * n)
    if sample is not None:
        results = [_group(p, n, _draw(p, n, sample, seed))]
    else:
        workers = min(int(workers), size, os.cpu_count() or 1)
        chunks = [(p, n, size * w // workers, size * (w + 1) // workers) for w in range(workers)]
        if workers == 1:
            results = map(_census_chunk, chunks)
        else:
            # imported here, so that lenspp loads no process pool until one is used
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_census_chunk, chunks))
    groups: dict[tuple, list] = {}
    for chunk in results:
        for key, (cnt, R, Q) in chunk.items():
            _add(groups, key, cnt, R, Q)
    reps = tuple(
        ClassRepresentative(R=tuple(rq[1]), Q=tuple(rq[2]), canonical=key[0],
                            fingerprint=key[1], count=rq[0])
        for key, rq in sorted(groups.items(), key=lambda kv: (kv[0], kv[1][1], kv[1][2]))
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


@dataclass(frozen=True)
class ApplicationReport:
    """Exhaustive check of the quadratic-residue homeomorphism criterion on
    products of 3-dimensional lens spaces L(p;1,r1) x L(p;1,r2)."""

    p: int
    quadruples: int
    criterion_true: int
    sufficiency_discrepancies: tuple[tuple[int, int, int, int], ...]
    necessity_discrepancies: tuple[tuple[int, int, int, int], ...]

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
    with the criterion: +-(r1*r2)/(q1*q2) is a quadratic residue."""
    require_odd_prime(p)
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
