"""Exhaustive censuses of free quotients for small (p, n), plus the
quadratic-residue verification over products of 3-dimensional lens spaces.

A census enumerates every validated free (R, Q), groups by the canonical
form of the k-invariant pair (homotopy classes), and refines each class by
a Pontrjagin fingerprint: the least transported reduced total class over
all witnesses onto the canonical form.  Two spaces land in the same refined
cell iff they are homeomorphic in the classifier's sense, because the
transported classes of a space form one orbit under the canonical form's
self-witnesses and orbits are equal or disjoint.

Outputs are deterministic byte-for-byte: the enumeration order is fixed,
workers only partition the scan and are merged with order-independent
reductions (sums and minima), and serialization is canonical.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from .actions import RotationData, product_of_lens_spaces
from .classify import (
    _canonicalize,
    _matching_substitutions,
    homeomorphic,
)
from .errors import CapacityError
# product_of_linear_forms and total_pontrjagin_raw are the form-valued
# counterparts of k_pair and pontrjagin_coeffs; the per-space kernel below
# does not call them, but perfbench/tracing.py wraps them under these names.
from .forms import (
    apply_matrix,
    k_pair,
    product_of_linear_forms,
    substitution_matrix,
)
from .gfp import inv, is_quadratic_residue, require_odd_prime
from .pontrjagin import pontrjagin_coeffs, total_pontrjagin_raw
from .quotient_ring import CohomRingModel, ring_model

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


def _rank2(R, Q, p) -> bool:
    i0 = next((i for i, x in enumerate(R) if x), None)
    if i0 is None:
        return False
    a, b = R[i0], Q[i0]
    # Q is off the line of R iff some a*Q[i] - b*R[i] is nonzero
    return any((a * y - b * x) % p for x, y in zip(R, Q))


def _free_by_planes(R, Q, p, n) -> bool:
    for i in range(n):
        ri, qi = R[i], Q[i]
        for j in range(n, 2 * n):
            if (ri * Q[j] - qi * R[j]) % p == 0:
                return False
    return True


def _scan(p: int, n: int, start: int, stop: int) -> Iterator[tuple[tuple, tuple, bool]]:
    """(R, Q, free) for every rank-2 pair whose R has lex index in
    [start, stop) among the p^(2n) vectors, in lex order of (R, Q)."""
    vectors = list(itertools.product(range(p), repeat=2 * n))
    for R in vectors[start:stop]:
        if not any(R):
            continue
        for Q in vectors:
            if _rank2(R, Q, p):
                yield R, Q, _free_by_planes(R, Q, p, n)


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


def enumerate_free(
    p: int, n: int, sample: int | None = None, seed: int = 0
) -> Iterator[RotationData]:
    """Yield each validated free (R, Q) exactly once, in a fixed order.

    Exhaustive mode scans all p^(4n) raw pairs and is guarded at p <= 7,
    n = 2; pass sample=k to draw k distinct free spaces from a seeded RNG
    instead (any p, subject to p > n for the downstream k-invariant).
    """
    require_odd_prime(p)
    if n < 2:
        raise CapacityError(f"census needs n >= 2, got {n}")
    size = p ** (2 * n)
    if sample is None:
        if p > CENSUS_PRIME_CAP or n != 2:
            raise CapacityError(
                f"exhaustive census covers p <= {CENSUS_PRIME_CAP}, n = 2 "
                f"({size}^2 raw pairs here); pass a sample size instead"
            )
        for R, Q, free in _scan(p, n, 0, size):
            if free:
                yield RotationData(p, n, R, Q)
        return
    population = free_count(p, n)
    if sample > population:
        raise CapacityError(
            f"sample of {sample} exceeds the {population} free spaces at p = {p}, n = {n}"
        )
    rng = random.Random(seed)
    seen: set[tuple] = set()
    attempts = 0
    while len(seen) < sample:
        attempts += 1
        if attempts > 10_000 * max(sample, 1):
            raise CapacityError("sampling failed to find enough free spaces")
        R = tuple(rng.randrange(p) for _ in range(2 * n))
        Q = tuple(rng.randrange(p) for _ in range(2 * n))
        if (R, Q) in seen or not _rank2(R, Q, p) or not _free_by_planes(R, Q, p, n):
            continue
        seen.add((R, Q))
        yield RotationData(p, n, R, Q)


@lru_cache(maxsize=1024)
def _self_substitutions(p: int, n: int, canon: tuple) -> tuple[tuple, ...]:
    return _matching_substitutions(p, n, canon, canon)


def _transport(model: CohomRingModel, A: tuple, t: tuple) -> tuple:
    """Substitute A into each (degree, coeffs) component, then reduce."""
    p = model.p
    return tuple(
        (deg, model.reduce_coeffs(apply_matrix(substitution_matrix(p, deg // 2, A), coeffs, p)))
        for deg, coeffs in t
    )


@lru_cache(maxsize=2**20)
def _min_fingerprint(p: int, n: int, canon: tuple, t0: tuple) -> tuple:
    """Least transported class: minimize the reduced component tuple over the
    canonical form's self-witness substitutions."""
    model = ring_model(p, n, canon)
    return min([t0, *(_transport(model, g, t0) for g in _self_substitutions(p, n, canon))])


def _classify_item(data: RotationData) -> tuple[tuple, tuple]:
    """(canonical k pair, Pontrjagin fingerprint) for one free space.

    Runs on coefficient tuples throughout; data is trusted (validated, or
    produced by the census scan)."""
    p, n = data.p, data.n
    canon, a0 = _canonicalize(p, n, k_pair(p, n, data.R, data.Q))
    raw = pontrjagin_coeffs(p, zip(data.R, data.Q), n - 1)
    t0 = _transport(
        ring_model(p, n, canon), a0, tuple((4 * k, c) for k, c in enumerate(raw, 1))
    )
    return canon, _min_fingerprint(p, n, canon, t0)


def _add(groups: dict, key: tuple, count: int, R: tuple, Q: tuple) -> None:
    """Merge count members with least pair (R, Q) into the cell at key."""
    got = groups.get(key)
    if got is None:
        groups[key] = [count, R, Q]
    else:
        got[0] += count
        if (R, Q) < (got[1], got[2]):
            got[1], got[2] = R, Q


def _census_chunk(args: tuple) -> tuple[int, int, dict]:
    """Scan R-indices [start, stop); returns (validated pairs, free count,
    {(canonical, fingerprint): [count, min R, min Q]})."""
    p, n, start, stop = args
    total = 0
    free = 0
    groups: dict[tuple, list] = {}
    for R, Q, acts_freely in _scan(p, n, start, stop):
        total += 1
        if acts_freely:
            free += 1
            _add(groups, _classify_item(RotationData(p, n, R, Q)), 1, R, Q)
    return total, free, groups


def run_census(
    p: int, n: int, workers: int = 1, sample: int | None = None, seed: int = 0
) -> CensusRecord:
    """Full (or sampled) census; identical results for any worker count."""
    require_odd_prime(p)
    outside = not (p > 3 and p > n + 1)
    total = 0
    free = 0
    groups: dict[tuple, list] = {}
    if sample is not None:
        for data in enumerate_free(p, n, sample=sample, seed=seed):
            free += 1
            total += 1
            _add(groups, _classify_item(data), 1, data.R, data.Q)
    else:
        if p > CENSUS_PRIME_CAP or n != 2:
            raise CapacityError(
                f"exhaustive census covers p <= {CENSUS_PRIME_CAP}, n = 2; "
                "pass a sample size instead"
            )
        size = p ** (2 * n)
        workers = max(1, min(int(workers), size))
        if workers == 1:
            chunks = [(p, n, 0, size)]
            results = map(_census_chunk, chunks)
        else:
            bound = [size * w // workers for w in range(workers + 1)]
            chunks = [
                (p, n, bound[w], bound[w + 1])
                for w in range(workers)
                if bound[w] < bound[w + 1]
            ]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_census_chunk, chunks))
        for chunk_total, chunk_free, chunk_groups in results:
            total += chunk_total
            free += chunk_free
            for key, (cnt, R, Q) in chunk_groups.items():
                _add(groups, key, cnt, R, Q)
    reps = tuple(
        ClassRepresentative(R=tuple(rq[1]), Q=tuple(rq[2]), canonical=key[0],
                            fingerprint=key[1], count=rq[0])
        for key, rq in sorted(groups.items(), key=lambda kv: (kv[0], kv[1][1], kv[1][2]))
    )
    return CensusRecord(
        p=p,
        n=n,
        total_pairs=total,
        free_count=free,
        homotopy_classes=len({key[0] for key in groups}),
        homeomorphism_classes=len(groups),
        outside_hypotheses=outside,
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
                    ratio = r1 * r2 * inv(q1 * q2, p) % p
                    criterion = is_quadratic_residue(ratio, p) or is_quadratic_residue(
                        p - ratio, p
                    )
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
