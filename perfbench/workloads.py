"""The four benchmark workloads: seeded inputs, the timed body, and output checks.

Each workload is a class with three steps that a worker process runs in order:

* ``prepare(seed)`` builds the inputs.  It runs before the timed section and
  counts towards ``setup_s``; it must not touch any of lenspp's module caches.
* ``run(inputs)`` is the timed section: the calls a user of lenspp waits on.
* ``check(inputs, output)`` verifies the answer after the clock has stopped
  and returns an :class:`Outcome`.

``tiny=True`` swaps in small inputs with their own recorded answers, so the
benchmark's tests can exercise every path in seconds.  Seeded answers (census
bytes, verdicts with their ``checked_pairs``) are recorded in expected.json for
a few seeds; every other seed is checked by invariants only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from lenspp import actions, census, classify, cli, forms

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

@dataclass
class Outcome:
    """Checked result of one timed section."""

    items: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # (latency ms, positive verdict) per decide call, for workloads made of calls
    calls: list[tuple[float, bool]] = field(default_factory=list)
    digest: dict = field(default_factory=dict)

    def fail(self, message: str, items: int | None = None) -> None:
        self.errors.append(message)
        self.failed = self.items if items is None else min(self.items, self.failed + items)


def _expected(name: str, tiny: bool) -> dict:
    return EXPECTED[name]["tiny" if tiny else "full"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _plane_free(R, Q, p: int, n: int) -> bool:
    """Freeness by the 2x2 block determinants, written here independently of lenspp."""
    return all(
        (R[i] * Q[j] - Q[i] * R[j]) % p for i in range(n) for j in range(n, 2 * n)
    )


class Workload:
    name: str

    def __init__(self, root: Path, tiny: bool):
        self.root = root
        self.expect = _expected(self.name, tiny)
        # the clock of per-call latencies; the worker swaps in one that leaves out
        # the reference kernel's time
        self.clock = time.perf_counter


class _CensusBase(Workload):

    def _scratch_dir(self) -> Path:
        """A fresh output directory inside the checkout, named but not created."""
        return self.root / ".perfbench" / "tmp" / f"{self.name}-{os.getpid()}"

    def _check_files(self, out: Path, outcome: Outcome, want: str | None) -> None:
        """Compare the ndjson digest with the recorded one, if any, check every
        representative is free, and check summary.csv against the counts the
        ndjson implies."""
        e = self.expect
        ndjson = out / f"census_p{e['p']}_n{e['n']}.ndjson"
        digest = _sha256(ndjson)
        outcome.digest["ndjson_sha256"] = digest
        if want is not None and digest != want:
            outcome.fail(f"ndjson sha256 {digest} != recorded {want}")
        reps = [json.loads(line) for line in ndjson.read_text().splitlines()]
        homotopy = len({json.dumps(r["canonical"]) for r in reps})
        free = sum(r["count"] for r in reps)
        summary = (out / "summary.csv").read_text().splitlines()
        want_line = f"{e['p']},{e['n']},{free},{homotopy},{len(reps)}"
        if summary[1:] != [want_line]:
            outcome.fail(f"summary.csv {summary[1:]} != [{want_line!r}]")
        for r in reps:
            if not _plane_free(r["R"], r["Q"], e["p"], e["n"]):
                outcome.fail(f"representative R={r['R']} Q={r['Q']} is not free")
        outcome.digest["representatives"] = len(reps)
        outcome.digest["homotopy_classes"] = homotopy
        outcome.digest["free"] = free


class CensusP5(_CensusBase):
    """``lenspp census 5 2`` through the CLI entry point, files included."""

    name = "census_p5"

    def prepare(self, seed: int):
        # An exhaustive census has no random input; the seed is accepted and unused.
        e = self.expect
        out = self._scratch_dir()
        return {"argv": ["census", str(e["p"]), str(e["n"]), "--out", str(out)], "out": out}

    def run(self, inputs):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(inputs["argv"])
        return rc, stdout.getvalue()

    def check(self, inputs, output) -> Outcome:
        rc, stdout = output
        outcome = Outcome(items=1)
        try:
            if rc != 0:
                outcome.fail(f"census exited {rc}")
                return outcome
            doc = json.loads(stdout.strip().splitlines()[-1])
            for key, want in self.expect["summary"].items():
                if doc.get(key) != want:
                    outcome.fail(f"summary {key}={doc.get(key)!r}, expected {want!r}")
            self._check_files(inputs["out"], outcome, self.expect["ndjson_sha256"])
        finally:
            shutil.rmtree(inputs["out"], ignore_errors=True)
        return outcome


class SampleP5N3(_CensusBase):
    """``run_census(5, 3, sample=3000, seed=S)``: the sampled census at n = 3."""

    name = "sample_p5n3"

    def prepare(self, seed: int):
        e = self.expect
        return {"p": e["p"], "n": e["n"], "sample": e["sample"], "seed": seed}

    def run(self, inputs):
        return census.run_census(
            inputs["p"], inputs["n"], sample=inputs["sample"], seed=inputs["seed"]
        )

    def check(self, inputs, record) -> Outcome:
        e = self.expect
        outcome = Outcome(items=1)
        counts = [rep.count for rep in record.representatives]
        if sum(counts) != inputs["sample"] or record.free_count != inputs["sample"]:
            outcome.fail(f"class sizes sum to {sum(counts)}, sample is {inputs['sample']}")
        if record.homotopy_classes != e["homotopy_classes"]:
            outcome.fail(
                f"{record.homotopy_classes} homotopy classes, expected {e['homotopy_classes']}"
            )
        out = self._scratch_dir()
        try:
            census.write_census(record, out)
            want = self.expect["ndjson_sha256"].get(str(inputs["seed"]))
            self._check_files(out, outcome, want)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return outcome


def _k_pair(R, Q, p: int, n: int):
    """Block products of the linear forms R[i]*a + Q[i]*b, independent of lenspp."""
    pair = []
    for block in (range(n), range(n, 2 * n)):
        f = [1]
        for i in block:
            g = [0] * (len(f) + 1)
            for k, c in enumerate(f):
                g[k] = (g[k] + c * R[i]) % p
                g[k + 1] = (g[k + 1] + c * Q[i]) % p
            f = g
        pair.append(f)
    return pair


def pencil_profile(R, Q, p: int, n: int) -> tuple:
    """How many nonzero members of span{f, g} (the k-invariant pencil, n = 2) are
    squares, split or irreducible, by their discriminant.

    Generator relabelling substitutes into every member and the det +-1 mix only
    changes the basis of the span, so equal profiles are necessary for homotopy
    equivalence: two spaces with different profiles are certainly not homeomorphic.
    """
    if n != 2:
        raise ValueError("the pencil profile is written for n = 2")
    f, g = _k_pair(R, Q, p, n)
    squares = {x * x % p for x in range(1, p)}
    kinds = Counter()
    for s in range(p):
        for t in range(p):
            if s or t:
                c0, c1, c2 = ((s * x + t * y) % p for x, y in zip(f, g))
                disc = (c1 * c1 - 4 * c0 * c2) % p
                if not (c0 or c1 or c2):
                    kinds["zero"] += 1
                else:
                    kinds["square" if disc == 0 else "split" if disc in squares else "irreducible"] += 1
    return tuple(sorted(kinds.items()))


def _random_free(rng: random.Random, p: int, n: int):
    while True:
        R = tuple(rng.randrange(p) for _ in range(2 * n))
        Q = tuple(rng.randrange(p) for _ in range(2 * n))
        # rank 2 and free; both by the benchmark's own arithmetic
        if _plane_free(R, Q, p, n) and any(
            (R[i] * Q[j] - Q[i] * R[j]) % p for i in range(2 * n) for j in range(2 * n)
        ):
            return R, Q


def _relabel(rng: random.Random, R, Q, p: int, n: int):
    """A space homeomorphic to (R, Q) by construction: new generators G [R; Q]
    with G in GL2, columns permuted within each block, the blocks optionally
    swapped, and each column's sign (the complex conjugate coordinate) flipped
    at random."""
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            break
    cols = [((a * r + b * q) % p, (c * r + d * q) % p) for r, q in zip(R, Q)]
    first, second = cols[:n], cols[n:]
    rng.shuffle(first)
    rng.shuffle(second)
    if rng.random() < 0.5:
        first, second = second, first
    cols = [(r, q) if rng.random() < 0.5 else (-r % p, -q % p) for r, q in first + second]
    return tuple(r for r, _ in cols), tuple(q for _, q in cols)


class CompareP13(Workload):
    """``homeomorphic(X, Y)`` calls at p = 13, n = 2, half positive by construction
    and half certified negative, in a seeded shuffled order."""

    name = "compare_p13"

    def prepare(self, seed: int):
        e = self.expect
        p, n, half = e["p"], e["n"], e["pairs"] // 2
        rng = random.Random(seed)
        pairs = []
        for _ in range(half):
            R, Q = _random_free(rng, p, n)
            pairs.append((R, Q, *_relabel(rng, R, Q, p, n), True))
        while len(pairs) < 2 * half:
            R, Q = _random_free(rng, p, n)
            R2, Q2 = _random_free(rng, p, n)
            # independent random pairs, kept when the profiles certify a negative
            if pencil_profile(R, Q, p, n) != pencil_profile(R2, Q2, p, n):
                pairs.append((R, Q, R2, Q2, False))
        rng.shuffle(pairs)
        pairs = [
            (
                actions.validate(actions.RotationData(p, n, R, Q)),
                actions.validate(actions.RotationData(p, n, R2, Q2)),
                positive,
            )
            for R, Q, R2, Q2, positive in pairs
        ]
        return {"seed": seed, "pairs": pairs}

    def run(self, inputs):
        clock = self.clock
        decide = classify.homeomorphic
        out = []
        for X, Y, _ in inputs["pairs"]:
            t0 = clock()
            verdict = decide(X, Y)
            out.append((verdict, (clock() - t0) * 1e3))
        return out

    def check(self, inputs, output) -> Outcome:
        outcome = Outcome(items=len(inputs["pairs"]))
        for (X, Y, positive), (verdict, ms) in zip(inputs["pairs"], output):
            outcome.calls.append((ms, verdict.equivalent))
            if verdict.equivalent != positive:
                outcome.fail(f"{X} vs {Y}: verdict {verdict.equivalent}, expected {positive}", 1)
            elif positive and not verdict.witness.verify(forms.k_invariant(X), forms.k_invariant(Y)):
                outcome.fail(f"{X} vs {Y}: witness does not verify", 1)
        got = [[v.equivalent, v.checked_pairs] for v, _ in output]
        outcome.digest["verdicts"] = got
        recorded = self.expect["verdicts"].get(str(inputs["seed"]))
        if recorded is not None and got != recorded:
            outcome.fail("verdicts or checked_pairs differ from the recorded ones")
        return outcome


class VerifyP11(Workload):
    """``verify_application(11)``: 10,000 small homeomorphism decisions."""

    name = "verify_p11"

    def __init__(self, root: Path, tiny: bool):
        super().__init__(root, tiny)
        self.latencies: list[tuple[float, bool]] = []

    def prepare(self, seed: int):
        # The quadruples are exhaustive; the seed is accepted and unused.
        return self.expect["p"]

    def time_calls(self) -> None:
        """Time each decide call verify_application makes, at its call site.

        Two clock reads per call; besides the reference kernel's timer, this is the
        only hook in an untraced run."""
        decide = census.homeomorphic
        clock = self.clock
        record = self.latencies.append

        def timed(X, Y, marked=False):
            t0 = clock()
            verdict = decide(X, Y, marked)
            record(((clock() - t0) * 1e3, verdict.equivalent))
            return verdict

        census.homeomorphic = timed

    def run(self, p):
        return census.verify_application(p)

    def check(self, p, report) -> Outcome:
        e = self.expect
        outcome = Outcome(items=report.quadruples, calls=self.latencies)
        outcome.failed = len(report.sufficiency_discrepancies) + len(report.necessity_discrepancies)
        for key in ("quadruples", "criterion_true", "ok"):
            got = getattr(report, key)
            if got != e[key]:
                outcome.fail(f"{key}={got!r}, expected {e[key]!r}")
        if self.latencies and len(self.latencies) != report.quadruples:
            outcome.fail(f"{len(self.latencies)} decide calls for {report.quadruples} quadruples")
        return outcome


WORKLOADS = {w.name: w for w in (CensusP5, SampleP5N3, CompareP13, VerifyP11)}
