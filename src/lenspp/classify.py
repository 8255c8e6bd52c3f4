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
k-invariants short-circuit to the identity witness first.  One walk,
_span_matches, lists every A carrying span k(X) onto span k(Y) with its
mix; the deciders, matching_substitutions and the canonical form all read
it, and its docstring states how it transports (on PGL2, in value
coordinates) and what it skips (by pencil profile, and by the incidence
prefilter).

The canonical form, the census grouping key, is the least pair in the
k-invariant pair's (A, B) orbit.  Substitution and mix commute, so the orbit
is built in one pass over GL2 (the scalar multiples of the PGL2
representatives) as a union of B-orbits: each A transports the pair once,
and only a transported pair not yet reached is mixed by the det +-1 group.
Before that pass, one walk lists the pair's self-witnesses, its stabiliser
in GL2.  It sizes the orbit by orbit-stabiliser, so an orbit above
ORBIT_SIZE_CAP pairs is refused before it is built, and, conjugated by the
witness onto the minimum, it gives the canonical form's self-witnesses,
which the census fingerprint minimises over.
The classical one-lens-space criteria are provided as baselines for
cross-checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .actions import RotationData, is_free
from .errors import CapacityError, HypothesisViolation, InvalidDimension, InvalidRotation
from .forms import (
    HomogeneousForm,
    KInvariant,
    apply_matrix,
    k_invariant,
    k_pair,
    substitute,
    substitution_matrix,
)
from .gfp import (
    Mat2,
    inv,
    mat2_inv,
    mat2_mul,
    pgl2_rows,
    require_odd_prime,
    wedge,
    wedge_span_key,
)
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


def _same_setting(X: RotationData, Y: RotationData) -> bool:
    """Refuse an input outside the hypotheses, then one that is not free,
    checking both inputs; only then say whether they share (p, n).  A pair
    with different (p, n) is a clean negative, but only for valid inputs."""
    _require_hypotheses(X.p, X.n)
    _require_hypotheses(Y.p, Y.n)
    _require_free(X)
    _require_free(Y)
    return (X.p, X.n) == (Y.p, Y.n)


def _at(x, s, t, p):
    """The degree-n form x at the point (s, t): sum_k x[k] * s^(n-k) * t^k,
    by Horner's rule in s."""
    v, tk = 0, 1
    for c in x:
        v = v * s + c * tk
        tk *= t
    return v % p


@lru_cache(maxsize=2**8)
def _value_table(p, x):
    """x at every point of GF(p)^2, x(s, t) at index s*p + t: p^2 values,
    ~7.7 KB at p = 31, so the 2^8 tables the cache holds stay near 2 MB."""
    return tuple(_at(x, s, t, p) for s in range(p) for t in range(p))


def _values(p, x):
    """Value coordinates of a degree-n form x: its values at the n + 1
    points (1, i), i = 0..n.  The points are distinct because p > n, and a
    nonzero degree-n form has at most n zeros on P^1, so this linear map is
    injective."""
    return tuple(_at(x, 1, i, p) for i in range(len(x)))


@lru_cache(maxsize=2**18)
def _transported(p, deg, A, x1, x2):
    """Value coordinates of the k-pair substituted by A = (a, b, c, d):
    u(1, i) = x1(a + b*i, c + d*i), n + 1 lookups into x1's value table,
    and likewise v from x2."""
    a, b, c, d = A
    t1, t2 = _value_table(p, x1), _value_table(p, x2)
    points = [(a + b * i) % p * p + (c + d * i) % p for i in range(deg + 1)]
    return tuple(t1[k] for k in points), tuple(t2[k] for k in points)


@lru_cache(maxsize=2**12)
def _target_plane(p, y1, y2):
    """Value coordinates (w1, w2) of the k-pair (y1, y2), the rref pivots
    i0 < j0 of their plane, and for every other column k the entries
    (k, r1[k], r2[k]) of its rref rows: w lies in the plane iff
    w[k] = w[i0]*r1[k] + w[j0]*r2[k] for each of them."""
    w1, w2 = _values(p, y1), _values(p, y2)
    r1, r2 = wedge_span_key(wedge(w1, w2, p), len(w1), p)
    i0 = next(k for k, x in enumerate(r1) if x)
    j0 = next(k for k, x in enumerate(r2) if x)
    rest = tuple((k, r1[k], r2[k]) for k in range(len(r1)) if k not in (i0, j0))
    return w1, w2, i0, j0, rest


@lru_cache(maxsize=2**4)
def _point_index(p):
    """The P^1(GF(p)) index of every nonzero (s, t), stored at s*p + t: t / s
    for s != 0, and p for the point (0 : 1).  Index 0 holds (0, 0), which is
    no point and is never looked up."""
    return tuple(t * inv(s, p) % p if s else p for s in range(p) for t in range(p))


@lru_cache(maxsize=2**12)
def _pencil(p, n, x1, x2):
    """The incidence of the pencil s*x1 + t*x2 of a free space's k-pair with
    P^1(GF(p)): (member, zeros), where member[k] is the index of the one
    member vanishing at the k-th point of P^1 ((1 : k), then (0 : 1)), and
    zeros[m] is the zero count of the m-th member (1 : m), then (0 : 1).

    At the point (a, b), x1 and x2 take values (e1, e2), not both zero
    (freeness: no linear factor of x1 is proportional to one of x2), and
    the one member vanishing there is (e2 : -e1)."""
    member = []
    for a, b in [(1, t) for t in range(p)] + [(0, 1)]:
        e1, e2 = _at(x1, a, b, p), _at(x2, a, b, p)
        member.append(-e1 * inv(e2, p) % p if e2 else p)
    zeros = [0] * (p + 1)
    for m in member:
        zeros[m] += 1
    return tuple(member), tuple(zeros)


@lru_cache(maxsize=2**12)
def _pencil_profile(p, n, x1, x2):
    """Sorted zero counts on P^1(GF(p)) of the p + 1 members of the pencil
    of a free space's k-pair (x1, x2) (see _pencil).  A substitution permutes
    P^1, an invertible mix permutes the members, and a scalar moves no
    zeros, so this is an invariant of the pair under (A, B) for every
    invertible B."""
    return tuple(sorted(_pencil(p, n, x1, x2)[1]))


def _mix_solver(u, v, y1, y2, i0, j0, p):
    """The mix (c, d, e, f) with c*u + d*v = y1 and e*u + f*v = y2, solved
    on the columns i0 and j0 of value coordinates.

    u and v must be independent and lie in the plane of y1 and y2, whose
    rref pivots are i0 and j0: that plane projects isomorphically onto
    those two columns, so the 2x2 minor of (u, v) there is invertible.  The
    k-pair of a free space and all its substitutions are independent (the
    public entry points check freeness first)."""
    s = inv(u[i0] * v[j0] - v[i0] * u[j0], p)
    return tuple(
        x * s % p
        for y in (y1, y2)
        for x in (y[i0] * v[j0] - v[i0] * y[j0], u[i0] * y[j0] - y[i0] * u[j0])
    )


def _span_matches(p, n, kx_pair, ky_pair, marked=False):
    """Yield (A, B), A in row-major order over GL2 (only the identity when
    marked), for every substitution A carrying span k(X) onto span k(Y); B is
    the mix carrying k(X) transported by A onto k(Y).

    The walk lives on PGL2: lam*A moves the degree-n k-pair to lam^n times
    its image under A, so it carries span k(X) to the same plane, and its
    mix is lam^-n times A's.  Row-major order walks the first rows (a, b) in
    lex order.  A row whose first nonzero entry lam is 1 holds PGL2
    representatives: each is transported and, if its span matches, its mix
    solved.  Every other row is lam times the earlier row (a, b) / lam, so
    its matches are lam*A with mix lam^-n * B, re-sorted.

    Both tests run in value coordinates: a degree-n form is determined by
    its values at the n + 1 points (1, i), i = 0..n (see _values), and the
    substituted form x.A has values x(a + b*i, c + d*i) there, n + 1 lookups
    into a table of x over GF(p)^2 (see _transported), so no substitution
    matrix is built.  Span equality and the mix read the same on values as
    on coefficients, because evaluation is a linear isomorphism.  The
    transported pair (u, v) is independent, so its span is k(Y)'s plane iff
    u and v each lie in it: n - 1 residual checks each (see _target_plane).

    Unmarked, the walk runs only if the pencil profiles agree, checked after
    pgl2_rows so its capacity refusal comes first, and before any value
    table or transport.  Differing profiles rule out every span match: a
    matching A and its invertible mix carry each member of span k(X) onto a
    member of span k(Y), and A permutes the points of P^1, so the members'
    zero counts agree.  The walk would yield nothing, which is what the
    early return yields.  The marked path evaluates k(X) at the n + 1
    points directly and builds no table, so it answers at any p.

    The same argument, point by point, prefilters the representatives
    before any transport (see _pencil).  If A = (a, b, c, d) matches, every
    member w of span k(Y) is m(phi_A) for a member m of span k(X), with
    phi_A(s, t) = (a*s + b*t, c*s + d*t) a permutation of P^1; so phi_A
    carries the zeros of w onto the zeros of m, and one member of span k(X)
    vanishes at both images.  The walk takes two zeros P0, P1 of a member
    of span k(Y) with the most zeros z, and transports A only if the
    member of span k(X) vanishing at phi_A(P0) also vanishes at phi_A(P1)
    and has z zeros.  Rejected representatives cannot match, so the yields
    are the same; when every member has at most one zero (z <= 1) there is
    no pair to probe and every representative is transported."""
    x1, x2 = kx_pair
    y1, y2 = ky_pair
    if not marked:
        reps = dict(pgl2_rows(p))
        if _pencil_profile(p, n, x1, x2) != _pencil_profile(p, n, y1, y2):
            return
        member_x, zeros_x = _pencil(p, n, x1, x2)
        member_y, zeros_y = _pencil(p, n, y1, y2)
        z = max(zeros_y)
        if z >= 2:  # P0 = (s0, t0), P1 = (s1, t1): zeros of a Y-member with z zeros
            m = zeros_y.index(z)
            probes = [(1, k) if k < p else (0, 1) for k, mk in enumerate(member_y) if mk == m]
            (s0, t0), (s1, t1) = probes[:2]
            idx = _point_index(p)
    w1, w2, i0, j0, rest = _target_plane(p, y1, y2)

    def in_plane(u, v):
        su, tu, sv, tv = u[i0], u[j0], v[i0], v[j0]
        for k, r1, r2 in rest:
            if (u[k] - su * r1 - tu * r2) % p or (v[k] - sv * r1 - tv * r2) % p:
                return False
        return True

    if marked:
        u, v = _values(p, x1), _values(p, x2)
        if in_plane(u, v):
            yield _IDENT, _mix_solver(u, v, w1, w2, i0, j0, p)
        return
    matched: dict[tuple, list] = {}  # representative row -> its matches (A, B)
    for a in range(p):
        for b in range(p):
            lam = a or b
            if lam == 1:
                got = matched[a, b] = []
                for A in reps[a, b]:
                    if z >= 2:
                        e, f, g, h = A  # phi_A(s, t) = (e*s + f*t, g*s + h*t)
                        m0 = member_x[idx[(e * s0 + f * t0) % p * p + (g * s0 + h * t0) % p]]
                        if zeros_x[m0] != z or m0 != member_x[
                            idx[(e * s1 + f * t1) % p * p + (g * s1 + h * t1) % p]
                        ]:
                            continue
                    u, v = _transported(p, n, A, x1, x2)
                    if in_plane(u, v):
                        got.append((A, _mix_solver(u, v, w1, w2, i0, j0, p)))
                        yield got[-1]
            elif lam:
                s = inv(lam, p)
                got = matched[a * s % p, b * s % p]
                if got:
                    t = pow(s, n, p)
                    yield from sorted(
                        (tuple(lam * x % p for x in A), tuple(t * x % p for x in B))
                        for A, B in got
                    )


def _decide(X, Y, level, marked=False, class_check=None):
    if not _same_setting(X, Y):
        return Verdict(False, None, 0, level)
    p, n = X.p, X.n
    kx = k_pair(p, n, X.R, X.Q)
    ky = k_pair(p, n, Y.R, Y.Q)
    checked = 0

    if kx == ky:
        checked += 1
        if class_check is None or class_check(_IDENT):
            w = EquivalenceWitness(Mat2.identity(p), Mat2.identity(p), level)
            return Verdict(True, w, checked, level)

    for A, (c, d, e, f) in _span_matches(p, n, kx, ky, marked):
        checked += 1
        if (c * f - d * e) % p not in (1, p - 1):
            continue
        if class_check is not None and not class_check(A):
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
    if not _same_setting(X, Y):
        return Verdict(False, None, 0, LEVEL_HOMEO)
    p, n = X.p, X.n
    classes = []  # Y's model, X's class, Y's reduced class: built on the first check

    def class_check(A: tuple) -> bool:
        # lazily, so _span_matches refuses above the GL2 cap and prunes by
        # pencil profile before any ring model is built
        if not classes:
            model = ring_model(p, n, k_pair(p, n, Y.R, Y.Q))
            cls_y = pontrjagin_coeffs(p, Y.rotation_pairs(), n - 1)
            # reduction is linear and idempotent, so reduce(moved - cls_y)
            # vanishes iff reduce(moved) equals the reduced class of Y
            classes[:] = (
                model,
                pontrjagin_coeffs(p, X.rotation_pairs(), n - 1),
                tuple(model.reduce_coeffs(c) for c in cls_y),
            )
        model_y, cls_x, cls_y = classes
        return _transport_class(model_y, A, cls_x) == cls_y

    return _decide(X, Y, LEVEL_HOMEO, marked, class_check)


def _transport_class(model, A: tuple, comps) -> tuple[tuple[int, ...], ...]:
    """The graded class comps (coefficient tuples of polynomial degree 2k,
    k = 1, 2, ...) carried along the substitution A and reduced by model."""
    p = model.p
    return tuple(
        model.reduce_coeffs(apply_matrix(substitution_matrix(p, 2 * k, A), c, p))
        for k, c in enumerate(comps, 1)
    )


def matching_substitutions(X: RotationData, Y: RotationData) -> tuple[tuple, ...]:
    """All substitution parts A (row-major order, as entry 4-tuples) admitting
    some det +-1 mix B that carries k(X) onto k(Y).  Used to transport
    characteristic classes along every witness.  Both spaces must meet the
    hypotheses and be free; spaces with different (p, n) have none."""
    if not _same_setting(X, Y):
        return ()
    kx = k_invariant(X)
    ky = k_invariant(Y)
    return _matching_substitutions(X.p, X.n, kx.coeff_pair(), ky.coeff_pair())


def _matching_substitutions(p, n, kx_pair, ky_pair) -> tuple[tuple, ...]:
    return tuple(
        A
        for A, (c, d, e, f) in _span_matches(p, n, kx_pair, ky_pair)
        if (c * f - d * e) % p in (1, p - 1)
    )


# ---------------------------------------------------------------------------
# canonical forms: orbit of the k-invariant pair under (A, B)

_ORBITS: dict[tuple, dict] = {}
# (p, n) -> {canonical pair: its self-witnesses}, one entry per orbit in _ORBITS
_SELF_WITNESSES: dict[tuple, dict] = {}

# Largest (A, B) orbit _canonicalize builds: every orbit at (13, 2) fits (the
# largest seen holds 1,192,464 pairs, ~230 MB peak), while (11, 3), (13, 3) and
# (17, 2) orbits run from 4,356,000 pairs up and are refused.
ORBIT_SIZE_CAP = 2_000_000


def _orbit_size(p: int, stabiliser: int) -> int:
    """Number of pairs in an (A, B) orbit whose pairs each have stabiliser
    self-witnesses A, by orbit-stabiliser: |GL2| * |{det B = +-1}| over the
    stabiliser (each self-witness has exactly one mix, since the transported
    pair is independent)."""
    return (p * p - 1) * (p * p - p) * 2 * p * (p * p - 1) // stabiliser


def _self_witnesses(p: int, n: int, canon: tuple) -> tuple[tuple, ...]:
    """The substitutions A, in row-major order, with a det +-1 mix carrying
    the canonical pair canon onto itself: _matching_substitutions(p, n,
    canon, canon), recorded by _canonicalize when it built canon's orbit."""
    return _SELF_WITNESSES[p, n][canon]


def _canonicalize(p: int, n: int, key: tuple) -> tuple[tuple, tuple]:
    """Orbit minimum of a k-coefficient pair under the (A, B) action, plus a
    substitution A0 carrying this pair onto the minimum.

    A cache miss walks once for the self-witnesses of key, Stab(key), which
    size the orbit (see _orbit_size): one above ORBIT_SIZE_CAP pairs is
    refused with CapacityError before any of it is built.
    Substitution and mix commute, so the orbit is the union over A in GL2 of
    the B-orbits of the transported pair key.A.  One pass over GL2 (the
    scalar multiples of the PGL2 representatives, in row-major order) fills
    reach, which maps each orbit member to the first A whose B-orbit holds
    it: a transported pair already in reach lies in a B-orbit already
    enumerated, otherwise all its det +-1 mixes (read off a table of the p^2
    combinations c*u + d*v) map to A.  Every member's answer is cached at
    once, and witnesses compose as A_key->x ^-1 * A_key->min.  The same walk
    gives the minimum's self-witnesses, Stab(min) = A0^-1 * Stab(key) * A0,
    which are recorded for _self_witnesses.
    """
    got = _ORBITS.get((p, n), {}).get(key)
    if got is not None:
        return got
    stabiliser = _matching_substitutions(p, n, key, key)
    size = _orbit_size(p, len(stabiliser))
    if size > ORBIT_SIZE_CAP:
        raise CapacityError(
            f"the canonical form at p = {p}, n = {n} needs an orbit of {size} pairs, "
            f"above the cap of {ORBIT_SIZE_CAP}"
        )
    cache = _ORBITS.setdefault((p, n), {})
    x1, x2 = key
    gl2 = sorted(
        (lam * a % p, lam * b % p, lam * c % p, lam * d % p)
        for _, reps in pgl2_rows(p)
        for a, b, c, d in reps
        for lam in range(1, p)
    )
    mixes = [b for b in gl2 if (b[0] * b[3] - b[1] * b[2]) % p in (1, p - 1)]
    reach: dict[tuple, tuple] = {}
    for A in gl2:
        M = substitution_matrix(p, n, A)
        u = apply_matrix(M, x1, p)
        v = apply_matrix(M, x2, p)
        if (u, v) in reach:
            continue
        lin = {
            (c, d): tuple((c * x + d * y) % p for x, y in zip(u, v))
            for c in range(p)
            for d in range(p)
        }
        for b in mixes:
            reach[lin[b[0], b[1]], lin[b[2], b[3]]] = A
    canon = min(reach)
    a_canon = reach[canon]
    entry = {A: (canon, mat2_mul(mat2_inv(A, p), a_canon, p)) for A in set(reach.values())}
    for pair, A in reach.items():
        cache[pair] = entry[A]
    a0 = cache[key][1]
    a0_inv = mat2_inv(a0, p)
    _SELF_WITNESSES.setdefault((p, n), {})[canon] = tuple(
        sorted(mat2_mul(mat2_mul(a0_inv, g, p), a0, p) for g in stabiliser)
    )
    return cache[key]


def canonical_form(X: RotationData) -> tuple[HomogeneousForm, HomogeneousForm]:
    """Lexicographically least element of the k-invariant pair's orbit under
    the (A, B) action; equal canonical forms characterize homotopy
    equivalence, so this is the census grouping key.  X must be free."""
    _require_hypotheses(X.p, X.n)
    _require_free(X)
    k = k_invariant(X)
    canon, _ = _canonicalize(X.p, X.n, k.coeff_pair())
    return (HomogeneousForm(X.p, canon[0]), HomogeneousForm(X.p, canon[1]))


# ---------------------------------------------------------------------------
# classical one-lens-space baselines

def _validate_lens(p, n, r, rprime):
    require_odd_prime(p)
    if n < 1:
        raise InvalidDimension(f"lens spaces need n >= 1 rotation numbers, got {n}")
    if len(r) != n or len(rprime) != n:
        raise InvalidRotation(f"rotation tuples must have length n = {n}")
    r = tuple(int(x) % p for x in r)
    rp = tuple(int(x) % p for x in rprime)
    if any(x == 0 for x in r + rp):
        raise InvalidRotation("lens-space rotation numbers must be nonzero mod p")
    return r, rp


def lens_homotopy_equivalent(p: int, n: int, r, rprime) -> bool:
    """L(p; r) ~ L(p; r') iff t^n * prod(r) = +- prod(r') for some unit t,
    i.e. iff x = prod(r') / prod(r) or -x is an n-th power.  The units form a
    cyclic group of order p - 1, where y is an n-th power iff
    y^((p - 1) / gcd(n, p - 1)) = 1."""
    r, rp = _validate_lens(p, n, r, rprime)
    x = math.prod(rp) * inv(math.prod(r), p) % p
    e = (p - 1) // math.gcd(n, p - 1)
    return pow(x, e, p) == 1 or pow(p - x, e, p) == 1


def lens_simple_homotopy_equivalent(p: int, n: int, r, rprime) -> bool:
    """L(p; r) and L(p; r') are simple-homotopy equivalent iff the rotation
    multisets agree up to one common unit factor k.  Such a k carries r'[0]
    into r, so only the n units k = r[i] / r'[0] are tried."""
    r, rp = _validate_lens(p, n, r, rprime)
    base = Counter(r)
    s = inv(rp[0], p)
    return any(Counter(k * x % p for x in rp) == base for k in {x * s % p for x in base})
