"""Equivalence decisions for the quotient spaces, with explicit witnesses.

Two free quotients with the same (p, n) are homotopy equivalent iff some
change of fundamental-group generators A in GL2(GF(p)) and some coefficient
automorphism B with det B = +-1 carry the k-invariant pair of one onto the
other: B mixes the two substituted components linearly.  Simple-homotopy
equivalence coincides with homotopy equivalence for these spaces and exists
as its own entry point; homeomorphism additionally requires some k-matching
witness to transport the total Pontrjagin class of one space onto the
other's modulo the cohomology ideal.

Witness searches enumerate A (then B) in row-major order over matrix
entries and report the first witness, so runs are reproducible; identical
k-invariants short-circuit to the identity witness first.  The span test
is shared across scalar classes: lam*A carries span k(X) to the same plane
as A, so it is decided once per element of PGL2 (p(p^2 - 1) of them, a
(p - 1)-th of GL2), on integer tuples, and the mix B is solved only for the
A whose class matched.  The classical one-lens-space criteria are provided
as baselines for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .actions import RotationData, is_free
from .errors import CapacityError, HypothesisViolation, InvalidRotation
from .forms import (
    HomogeneousForm,
    KInvariant,
    apply_matrix,
    k_invariant,
    k_pair,
    substitute,
    substitution_matrix,
)
from .gfp import Mat2, gl2_tuples, inv, pair_span_key, primitive_root, require_odd_prime
# total_pontrjagin_raw is the form-valued counterpart of pontrjagin_coeffs;
# the deciders do not call it, but perfbench/tracing.py wraps it under this name.
from .pontrjagin import pontrjagin_coeffs, total_pontrjagin_raw
from .quotient_ring import ring_model

LEVEL_HOMOTOPY = "homotopy"
LEVEL_SIMPLE = "simple_homotopy"
LEVEL_HOMEO = "homeomorphism"

_IDENT = (1, 0, 0, 1)


@dataclass(frozen=True)
class EquivalenceWitness:
    """A pair (A, B) realizing an equivalence; checked for the determinant
    constraints on construction, and verifiable against the k-invariants."""

    A: Mat2
    B: Mat2
    level: str

    def __post_init__(self):
        if not self.A.is_invertible():
            raise ValueError("witness substitution A must be invertible")
        if self.B.det() not in (1, self.B.p - 1):
            raise ValueError("witness coefficient matrix B must have det +-1")

    def verify(self, kx: KInvariant, ky: KInvariant) -> bool:
        u = substitute(kx.first, self.A)
        v = substitute(kx.second, self.A)
        b11, b12, b21, b22 = self.B.entries
        return (
            u.scale(b11) + v.scale(b12) == ky.first
            and u.scale(b21) + v.scale(b22) == ky.second
        )

    def to_json(self) -> dict:
        return {"A": self.A.rows(), "B": self.B.rows()}


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    witness: EquivalenceWitness | None
    checked_pairs: int
    level: str

    def to_json(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "level": self.level,
            "witness": self.witness.to_json() if self.witness else None,
            "checked_pairs": self.checked_pairs,
        }


def _require_hypotheses(p: int, n: int) -> None:
    if p <= 3 or p <= n + 1:
        raise HypothesisViolation(
            f"classification needs p > 3 and p > n + 1, got p = {p}, n = {n}"
        )


def _require_free(data: RotationData) -> None:
    if not is_free(data).free:
        raise InvalidRotation("comparison requires free actions; input is not free")


@lru_cache(maxsize=2**18)
def _transported(p, deg, A, x1, x2):
    """Substituted k-pair (u, v) for substitution A, plus its span key."""
    M = substitution_matrix(p, deg, A)
    u = apply_matrix(M, x1, p)
    v = apply_matrix(M, x2, p)
    return u, v, pair_span_key(u, v, p)


@lru_cache(maxsize=64)
def _inverses(p):
    """Table of inverses mod p; entry 0 is unused."""
    return (0,) + tuple(pow(x, p - 2, p) for x in range(1, p))


def _mix_solver(u, v, p):
    """Return solve(y) -> ordered list of (c, d) with c*u + d*v = y."""
    m = len(u)
    i0 = next((i for i in range(m) if u[i] or v[i]), None)
    j0 = None
    if i0 is not None:
        j0 = next(
            (j for j in range(m) if (u[i0] * v[j] - v[i0] * u[j]) % p), None
        )
    if i0 is None or j0 is None:
        # rank <= 1 (never for free inputs); brute scan keeps it correct anyway
        def solve_small(y):
            return [
                (c, d)
                for c in range(p)
                for d in range(p)
                if all((c * u[k] + d * v[k] - y[k]) % p == 0 for k in range(m))
            ]

        return solve_small

    det_inv = inv(u[i0] * v[j0] - v[i0] * u[j0], p)

    def solve(y):
        c = (y[i0] * v[j0] - v[i0] * y[j0]) * det_inv % p
        d = (u[i0] * y[j0] - y[i0] * u[j0]) * det_inv % p
        for k in range(m):
            if (c * u[k] + d * v[k] - y[k]) % p:
                return []
        return [(c, d)]

    return solve


def _span_matches(p, n, kx_pair, ky_pair, marked=False):
    """Yield (A, rows1, rows2), A in row-major order over GL2 (only the
    identity when marked), for every substitution A carrying span k(X) onto
    span k(Y); rows1 and rows2 list the mixes (c, d) with c*u + d*v = y1,
    resp. y2, where (u, v) is k(X) transported by A.

    lam*A transports each degree-n form to lam^n times its image under A, so
    the span test depends only on A's scalar class.  It runs once per class,
    on the member whose first nonzero entry is 1; that member comes first in
    row-major order, and the later members reuse its verdict and scale its
    (u, v)."""
    x1, x2 = kx_pair
    y1, y2 = ky_pair
    target = pair_span_key(y1, y2, p)
    inverses = _inverses(p)
    matched: dict[tuple, tuple] = {}  # class representative -> its (u, v)
    for A in ((_IDENT,) if marked else gl2_tuples(p)):
        lead = A[0] or A[1]
        if lead == 1:
            u, v, key = _transported(p, n, A, x1, x2)
            if key != target:
                continue
            matched[A] = (u, v)
        else:
            if not matched:
                continue
            s = inverses[lead]
            got = matched.get((A[0] * s % p, A[1] * s % p, A[2] * s % p, A[3] * s % p))
            if got is None:
                continue
            scale = pow(lead, n, p)
            u, v = (tuple(scale * c % p for c in w) for w in got)
        solve = _mix_solver(u, v, p)
        rows1 = solve(y1)
        if rows1:
            yield A, rows1, solve(y2)


def _decide(X, Y, level, marked=False, class_check=None):
    if (X.p, X.n) != (Y.p, Y.n):
        return Verdict(False, None, 0, level)
    p, n = X.p, X.n
    _require_hypotheses(p, n)
    _require_free(X)
    _require_free(Y)
    kx = k_pair(p, n, X.R, X.Q)
    ky = k_pair(p, n, Y.R, Y.Q)
    checked = 0

    if kx == ky:
        checked += 1
        if class_check is None or class_check(_IDENT):
            w = EquivalenceWitness(Mat2.identity(p), Mat2.identity(p), level)
            return Verdict(True, w, checked, level)

    class_ok: dict[tuple, bool] = {}
    for A, rows1, rows2 in _span_matches(p, n, kx, ky, marked):
        for c, d in rows1:
            for e, f in rows2:
                checked += 1
                if (c * f - d * e) % p not in (1, p - 1):
                    continue
                if class_check is not None:
                    ok = class_ok.get(A)
                    if ok is None:
                        ok = class_ok[A] = class_check(A)
                    if not ok:
                        continue
                w = EquivalenceWitness(Mat2(p, A), Mat2(p, (c, d, e, f)), level)
                return Verdict(True, w, checked, level)
    return Verdict(False, None, checked, level)


def homotopy_equivalent(X: RotationData, Y: RotationData, marked: bool = False) -> Verdict:
    """Exhaustive k-invariant matching over GL2 x {det +-1}.

    marked=True pins the fundamental-group identification (A = identity),
    leaving only the coefficient mix B free.
    """
    return _decide(X, Y, LEVEL_HOMOTOPY, marked)


def simple_homotopy_equivalent(
    X: RotationData, Y: RotationData, marked: bool = False
) -> Verdict:
    """Same decision procedure as homotopy equivalence (the two notions
    coincide for these quotients); kept as a distinct entry point."""
    return _decide(X, Y, LEVEL_SIMPLE, marked)


def homeomorphic(X: RotationData, Y: RotationData, marked: bool = False) -> Verdict:
    """Search all k-matching witnesses for one whose substitution also carries
    the total Pontrjagin class of X onto Y's, modulo Y's cohomology ideal."""
    if (X.p, X.n) != (Y.p, Y.n):
        return Verdict(False, None, 0, LEVEL_HOMEO)
    p, n = X.p, X.n
    _require_hypotheses(p, n)
    _require_free(X)
    _require_free(Y)
    model_y = ring_model(p, n, k_pair(p, n, Y.R, Y.Q))
    cls_x = pontrjagin_coeffs(p, X.rotation_pairs(), n - 1)
    # reduction is linear and idempotent, so reduce(moved - cls_y) vanishes
    # iff reduce(moved) equals the reduced class of Y
    cls_y = [model_y.reduce_coeffs(c) for c in pontrjagin_coeffs(p, Y.rotation_pairs(), n - 1)]

    def class_check(A: tuple) -> bool:
        return all(
            model_y.reduce_coeffs(apply_matrix(substitution_matrix(p, 2 * k, A), fx, p)) == fy
            for k, (fx, fy) in enumerate(zip(cls_x, cls_y), 1)
        )

    return _decide(X, Y, LEVEL_HOMEO, marked, class_check)


def matching_substitutions(X: RotationData, Y: RotationData) -> tuple[tuple, ...]:
    """All substitution parts A (row-major order, as entry 4-tuples) admitting
    some det +-1 mix B that carries k(X) onto k(Y).  Used to transport
    characteristic classes along every witness."""
    if (X.p, X.n) != (Y.p, Y.n):
        return ()
    kx = k_invariant(X)
    ky = k_invariant(Y)
    return _matching_substitutions(X.p, X.n, kx.coeff_pair(), ky.coeff_pair())


def _matching_substitutions(p, n, kx_pair, ky_pair) -> tuple[tuple, ...]:
    return tuple(
        A
        for A, rows1, rows2 in _span_matches(p, n, kx_pair, ky_pair)
        if any((c * f - d * e) % p in (1, p - 1) for c, d in rows1 for e, f in rows2)
    )


# ---------------------------------------------------------------------------
# canonical forms: orbit of the k-invariant pair under (A, B)

_ORBITS: dict[tuple, dict] = {}


def _mat_mul(a, b, p):
    return (
        (a[0] * b[0] + a[1] * b[2]) % p,
        (a[0] * b[1] + a[1] * b[3]) % p,
        (a[2] * b[0] + a[3] * b[2]) % p,
        (a[2] * b[1] + a[3] * b[3]) % p,
    )


def _mat_inv(a, p):
    s = inv((a[0] * a[3] - a[1] * a[2]) % p, p)
    return (a[3] * s % p, -a[1] * s % p, -a[2] * s % p, a[0] * s % p)


@lru_cache(maxsize=None)
def _generators(p):
    g = primitive_root(p)
    a_gens = ((1, 1, 0, 1), (1, 0, 1, 1), (g, 0, 0, 1))  # generate GL2
    b_gens = ((1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 0))  # generate det +-1
    return a_gens, b_gens


def _canonicalize(p: int, n: int, key: tuple) -> tuple[tuple, tuple]:
    """Orbit minimum of a k-coefficient pair under the (A, B) action, plus a
    substitution A0 carrying this pair onto the minimum.

    One BFS enumerates the whole orbit, so every member's answer is cached at
    once; each element carries the substitution part of a witness from the
    seed, and witnesses compose as A_seed->x ^-1 * A_seed->min.
    """
    cache = _ORBITS.setdefault((p, n), {})
    got = cache.get(key)
    if got is not None:
        return got
    a_gens, b_gens = _generators(p)
    seen: dict[tuple, tuple] = {key: _IDENT}
    frontier = [key]
    while frontier:
        nxt = []
        for pair in frontier:
            a_part = seen[pair]
            c1, c2 = pair
            for g in a_gens:
                M = substitution_matrix(p, n, g)
                moved = (apply_matrix(M, c1, p), apply_matrix(M, c2, p))
                if moved not in seen:
                    seen[moved] = _mat_mul(a_part, g, p)
                    nxt.append(moved)
            for b in b_gens:
                mixed = (
                    tuple((b[0] * x + b[1] * y) % p for x, y in zip(c1, c2)),
                    tuple((b[2] * x + b[3] * y) % p for x, y in zip(c1, c2)),
                )
                if mixed not in seen:
                    seen[mixed] = a_part
                    nxt.append(mixed)
        frontier = nxt
    canon = min(seen)
    a_canon = seen[canon]
    for pair, a_part in seen.items():
        cache[pair] = (canon, _mat_mul(_mat_inv(a_part, p), a_canon, p))
    return cache[key]


def canonical_form(X: RotationData) -> tuple[HomogeneousForm, HomogeneousForm]:
    """Lexicographically least element of the k-invariant pair's orbit under
    the (A, B) action; equal canonical forms characterize homotopy
    equivalence, so this is the census grouping key."""
    _require_hypotheses(X.p, X.n)
    k = k_invariant(X)
    canon, _ = _canonicalize(X.p, X.n, k.coeff_pair())
    return (HomogeneousForm(X.p, canon[0]), HomogeneousForm(X.p, canon[1]))


# ---------------------------------------------------------------------------
# classical one-lens-space baselines

def _validate_lens(p, n, r, rprime):
    require_odd_prime(p)
    if len(r) != n or len(rprime) != n:
        raise InvalidRotation(f"rotation tuples must have length n = {n}")
    r = tuple(int(x) % p for x in r)
    rp = tuple(int(x) % p for x in rprime)
    if any(x == 0 for x in r + rp):
        raise InvalidRotation("lens-space rotation numbers must be nonzero mod p")
    return r, rp


def lens_homotopy_equivalent(p: int, n: int, r, rprime) -> bool:
    """L(p; r) ~ L(p; r') iff t^n * prod(r) = +- prod(r') for some unit t."""
    r, rp = _validate_lens(p, n, r, rprime)
    pr = 1
    for x in r:
        pr = pr * x % p
    pq = 1
    for x in rp:
        pq = pq * x % p
    return any(pow(t, n, p) * pr % p in (pq, (p - pq) % p) for t in range(1, p))


def lens_simple_homotopy_equivalent(p: int, n: int, r, rprime) -> bool:
    """L(p; r) and L(p; r') are simple-homotopy equivalent iff the rotation
    multisets agree up to one common unit factor (equivalently: some
    permutation aligns them).  Guarded at n <= 8 to honor the stated
    permutation-search capacity, although the multiset comparison is cheap."""
    if n > 8:
        raise CapacityError(f"simple-homotopy baseline capped at n <= 8, got {n}")
    r, rp = _validate_lens(p, n, r, rprime)
    base = sorted(r)
    return any(sorted(k * x % p for x in rp) == base for k in range(1, p))
