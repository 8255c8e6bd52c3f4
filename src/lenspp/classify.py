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
coordinates), what it skips (by pencil profile) and which representatives
it transports (those it solves for from the pencils' zeros, row by row).

The canonical form, the census grouping key, is the least pair in the
k-invariant pair's (A, B) orbit.  Substitution and mix commute, so the orbit
is a union of B-orbits, one per transported pair: one pass over the PGL2
representatives in row-major order transports the pair once per
representative A and keys the B-orbit of every scalar multiple lam * A by
its least member, all in closed form (lam * A scales the transported pair by
lam^n); the least key is the canonical form, and each B-orbit's members are
mixed by the det +-1 group and stored once.
Before that pass, one walk lists the pair's self-witnesses, its stabiliser
in GL2.  It sizes the orbit by orbit-stabiliser, so an orbit above
ORBIT_SIZE_CAP pairs is refused before it is built, and, conjugated by the
witness onto the minimum, it gives the canonical form's self-witnesses,
which the census fingerprint minimises over.  Every orbit member is stored
with one record for its whole class: the canonical form, a witness onto it
and the canonical form's self-witnesses.
The classical one-lens-space criteria are provided as baselines for
cross-checks.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .actions import RotationData, _lens_rotations, is_free
from .errors import CapacityError, HypothesisViolation, InvalidDimension, InvalidRotation
from .forms import (
    HomogeneousForm,
    KInvariant,
    apply_matrix,
    k_pair,
    substitute,
    substitute_columns,
    substitution_matrix,
)
from .gfp import (
    GL2_PRIME_CAP,
    Mat2,
    inv,
    mat2_inv,
    mat2_mul,
    plane_column,
    require_odd_prime,
    wedge,
    wedge_span_key,
)
# total_pontrjagin_raw is the form-valued counterpart of pontrjagin_coeffs;
# the deciders do not call it, but perfbench/tracing.py wraps it under this name.
from .pontrjagin import reduced_class, total_pontrjagin_raw
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


def _require_free(data: RotationData, name: str = "input") -> None:
    if not is_free(data).free:
        raise InvalidRotation(f"comparison requires free actions; {name} is not free")


def _same_setting(X: RotationData, Y: RotationData) -> bool:
    """Refuse an input outside the hypotheses, then one that is not free,
    checking both inputs; only then say whether they share (p, n).  A pair
    with different (p, n) is a clean negative, but only for valid inputs."""
    _require_hypotheses(X.p, X.n)
    _require_hypotheses(Y.p, Y.n)
    _require_free(X, "the first space")
    _require_free(Y, "the second space")
    return (X.p, X.n) == (Y.p, Y.n)


def _at(x, s, t, p):
    """The degree-n form x at the point (s, t): sum_k x[k] * s^(n-k) * t^k,
    by Horner's rule in s."""
    v, tk = 0, 1
    for c in x:
        v = v * s + c * tk
        tk *= t
    return v % p


def _values(p, x, A=_IDENT):
    """Value coordinates of the degree-n form x substituted by A = (a, b, c,
    d): its values x(a + b*i, c + d*i) at the n + 1 points (1, i), i = 0..n.
    The points are distinct because p > n, and a nonzero degree-n form has
    at most n zeros on P^1, so this linear map is injective."""
    a, b, c, d = A
    return tuple(_at(x, (a + b * i) % p, (c + d * i) % p, p) for i in range(len(x)))


@lru_cache(maxsize=2**18)
def _transported(p, A, x1, x2):
    """Value coordinates of the k-pair (x1, x2) substituted by A."""
    return _values(p, x1, A), _values(p, x2, A)


@lru_cache(maxsize=2**12)
def _target_plane(p, y1, y2):
    """The rref pivots i0 < j0 of the plane of the k-pair (y1, y2) in value
    coordinates, W = the columns i0, j0 of their values (row-major, one row
    per form), and for every other column k the entries (k, r1[k], r2[k])
    of its rref rows: w lies in the plane iff w[k] = w[i0]*r1[k] +
    w[j0]*r2[k] for each of them."""
    w1, w2 = _values(p, y1), _values(p, y2)
    r1, r2 = wedge_span_key(wedge(w1, w2, p), len(w1), p)
    i0 = next(k for k, x in enumerate(r1) if x)
    j0 = next(k for k, x in enumerate(r2) if x)
    rest = tuple((k, r1[k], r2[k]) for k in range(len(r1)) if k not in (i0, j0))
    return (w1[i0], w1[j0], w2[i0], w2[j0]), i0, j0, rest


def _point(k, p):
    """The k-th point of P^1(GF(p)): (1 : k) for k < p, then (0 : 1)."""
    return (1, k) if k < p else (0, 1)


@lru_cache(maxsize=2**12)
def _pencil(p, x1, x2):
    """The incidence of the pencil s*x1 + t*x2 of a free space's k-pair with
    P^1(GF(p)): (member, zeros, profile, targets, probes), where member[k]
    is the index of the one member vanishing at the k-th point of P^1 (see
    _point), zeros[m] is the zero count of the m-th member (1 : m), then
    (0 : 1), and profile is zeros sorted.  With z the most zeros of a
    member, targets and probes are what _row_solutions solves with, read
    once per pencil:
    - targets = (pairs, ends): pairs holds the ordered pairs (k0, k1) of
      distinct zeros, both below p, of every member with z zeros; ends
      holds the other zeros of the member vanishing at (0 : 1) if it has z
      zeros, and is empty otherwise;
    - probes is None when z <= 1.  Otherwise it is (P0, P1, solve, second):
      P0 and P1 are the first two zeros of the first member with z zeros,
      solve is the inverse of the matrix with rows P0 and P1 (gfp.mat2_inv),
      and second is (P2, P3, z2), the first two zeros of the first other
      member with z2 >= 2 zeros, or None if there is none.

    At the point (a, b), x1 and x2 take values (e1, e2), not both zero
    (freeness: no linear factor of x1 is proportional to one of x2), and
    the one member vanishing there is (e2 : -e1).

    The profile is an invariant of the pair under (A, B) for every
    invertible B: a substitution permutes P^1, an invertible mix permutes
    the members, and a scalar moves no zeros."""
    member = []
    for k in range(p + 1):
        a, b = _point(k, p)
        e1, e2 = _at(x1, a, b, p), _at(x2, a, b, p)
        member.append(-e1 * inv(e2, p) % p if e2 else p)
    roots = [[] for _ in range(p + 1)]  # roots[m]: the zeros of member m, in index order
    for k, m in enumerate(member):
        roots[m].append(k)
    zeros = tuple(map(len, roots))
    z = max(zeros)
    pairs = tuple(
        (k0, k1)
        for r in roots
        if len(r) == z
        for k0 in r
        for k1 in r
        if k0 != k1 and k0 < p and k1 < p
    )
    end = roots[member[p]]
    ends = tuple(k for k in end if k < p) if len(end) == z else ()
    probes = None
    if z >= 2:
        m = zeros.index(z)
        P0, P1 = _point(roots[m][0], p), _point(roots[m][1], p)
        second = next(
            (
                (_point(r[0], p), _point(r[1], p), len(r))
                for k, r in enumerate(roots)
                if k != m and len(r) >= 2
            ),
            None,
        )
        probes = (P0, P1, mat2_inv(P0 + P1, p), second)
    return tuple(member), zeros, tuple(sorted(zeros)), (pairs, ends), probes


def _mix_solver(u, v, W, i0, j0, p):
    """The mix B = (c, d, e, f) with c*u + d*v = y1 and e*u + f*v = y2, for
    the k-pair (y1, y2) whose plane has rref pivots i0 and j0 and W the
    columns i0, j0 of its values (see _target_plane): B*U = W, with U the
    columns i0, j0 of (u, v).

    u and v must be independent and lie in that plane, which projects
    isomorphically onto the pivot columns, so U is invertible.  The k-pair
    of a free space and all its substitutions are independent (the public
    entry points check freeness first)."""
    return mat2_mul(W, mat2_inv((u[i0], u[j0], v[i0], v[j0]), p), p)


def _row_solutions(p, a, b, pencil_x, probes):
    """Yield, in lex order, the (c, d) of the representative row (a, b)
    worth a transport: those with A = (a, b, c, d) invertible and phi_A
    carrying each probe pair of the other pencil onto zeros of one member
    of span k(X) with as many zeros.  pencil_x is k(X)'s _pencil entry and
    probes the other pencil's (see _pencil); the profiles agree.

    With probes None (z <= 1) every invertible (c, d) is yielded.
    Otherwise the row fixes the first coordinate fi = a*si + b*ti of
    phi_A(Pi), so phi_A(Pi) is the point (1 : ki) iff c*si + d*ti = ki*fi:
    one 2x2 solve, by probes' inverse, per ordered pair (k0, k1) of zeros
    of a member with z zeros.  Where f0 = 0, phi_A(P0) is (0 : 1), so only
    the pairs (p, k1) qualify and c*s0 + d*t0 is any unit, p - 1 solutions
    per pair; likewise where f1 = 0.  Every solution is invertible: phi_A
    takes P0 and P1 to distinct points.  The solutions are sorted into lex
    order, then, when a second probe pair P2, P3 exists, its member of
    span k(X), read off the P^1 indices of phi_A(P2) and phi_A(P3), must
    vanish at both and have z2 zeros; that check runs lazily, as the walk
    consumes the row."""
    if probes is None:
        yield from ((c, d) for c in range(p) for d in range(p) if (a * d - b * c) % p)
        return
    member_x, zeros_x, _, (pairs, ends), _ = pencil_x
    (s0, t0), (s1, t1), (i00, i01, i10, i11), second = probes
    f0, f1 = (a * s0 + b * t0) % p, (a * s1 + b * t1) % p
    if f0 and f1:
        rhs = [(k0 * f0, k1 * f1) for k0, k1 in pairs]
    elif f1:  # phi_A(P0) = (0 : e), e = c*s0 + d*t0 any unit
        rhs = [(e, k1 * f1) for k1 in ends for e in range(1, p)]
    else:
        rhs = [(k0 * f0, e) for k0 in ends for e in range(1, p)]
    cds = sorted(((x * i00 + y * i01) % p, (x * i10 + y * i11) % p) for x, y in rhs)
    if second is None:
        yield from cds
        return
    # the P^1 index of phi_A(Pi), i = 2, 3: c*kci + d*kdi, or p (oi) if fi = 0
    (s2, t2), (s3, t3), z2 = second
    f2, f3 = (a * s2 + b * t2) % p, (a * s3 + b * t3) % p
    q2, q3 = (inv(f, p) if f else 0 for f in (f2, f3))
    kc2, kd2, o2 = s2 * q2 % p, t2 * q2 % p, 0 if f2 else p
    kc3, kd3, o3 = s3 * q3 % p, t3 * q3 % p, 0 if f3 else p
    for c, d in cds:
        m2 = member_x[(c * kc2 + d * kd2) % p + o2]
        if zeros_x[m2] == z2 and m2 == member_x[(c * kc3 + d * kd3) % p + o3]:
            yield c, d


def _span_matches(p, n, kx_pair, ky_pair, marked=False):
    """Yield (A, B), A in row-major order over GL2 (only the identity when
    marked), for every substitution A carrying span k(X) onto span k(Y); B is
    the mix carrying k(X) transported by A onto k(Y).

    The walk lives on PGL2: lam*A moves the degree-n k-pair to lam^n times
    its image under A, so it carries span k(X) to the same plane, and its
    mix is lam^-n times A's.  Row-major order walks the first rows (a, b) in
    lex order.  A row whose first nonzero entry lam is 1 holds PGL2
    representatives, its invertible (c, d) in lex order: each is transported
    and, if its span matches, its mix solved.  Every other row is lam times
    the earlier row (a, b) / lam, so its matches are lam*A with mix
    lam^-n * B, re-sorted.

    Both tests run in value coordinates: a degree-n form is determined by
    its values at the n + 1 points (1, i), i = 0..n, and the substituted
    form x.A has values x(a + b*i, c + d*i) there (see _values), so no
    substitution matrix is built.  Span equality and the mix read the same
    on values as on coefficients, because evaluation is a linear
    isomorphism.  The transported pair (u, v) is independent, so its span
    is k(Y)'s plane iff u and v each lie in it: n - 1 residual checks each
    (see _target_plane).

    Unmarked, the walk refuses p above GL2_PRIME_CAP first; then it runs
    only if the pencil profiles agree, checked before any transport.
    Differing profiles rule out every span match: a matching A and its
    invertible mix carry each member of span k(X) onto a member of span
    k(Y), and A permutes the points of P^1, so the members' zero counts
    agree.  The walk would yield nothing, which is what the early
    return yields.  The marked path transports by the identity alone, with
    no walk and no cap, so it answers at any p.

    The same argument, point by point, lists the representatives worth a
    transport.  If A = (a, b, c, d) matches, every member w of span k(Y) is
    m(phi_A) for a member m of span k(X), with phi_A(s, t) = (a*s + b*t,
    c*s + d*t) a permutation of P^1; so phi_A carries the zeros of w onto
    the zeros of m, which has as many zeros.  Hence a match carries two
    zeros P0, P1 of a member of span k(Y) with the most zeros z >= 2 onto
    two zeros of one member of span k(X) with z zeros, and likewise two
    zeros P2, P3 of a second member with z2 >= 2 zeros.  _row_solutions
    lists, row by row in lex order, the invertible (c, d) that pass both
    incidence tests (see _pencil for the probes).  Both tests are
    necessary, so the yields and their order are those of a walk over
    every (c, d).  At n = 2 they are also sufficient: the members with two
    zeros pair the points of P^1 by a Moebius involution, whose pairs span
    the pencil, and phi_A conjugates Y's involution to X's at the four
    points P0..P3, hence everywhere; so the walk transports only span
    matches.  When every member has at most one zero (z <= 1) there is no
    pair to probe, and every invertible (c, d) is transported."""
    x1, x2 = kx_pair
    y1, y2 = ky_pair
    if not marked:
        if p > GL2_PRIME_CAP:
            raise CapacityError(
                f"GL2 enumeration over GF({p}) has {(p*p-1)*(p*p-p)} elements; capped at p <= {GL2_PRIME_CAP}"
            )
        pencil_x = _pencil(p, x1, x2)
        *_, profile_y, _, probes = _pencil(p, y1, y2)
        if pencil_x[2] != profile_y:
            return
    W, i0, j0, rest = _target_plane(p, y1, y2)

    def in_plane(u, v):
        su, tu, sv, tv = u[i0], u[j0], v[i0], v[j0]
        for k, r1, r2 in rest:
            if (u[k] - su * r1 - tu * r2) % p or (v[k] - sv * r1 - tv * r2) % p:
                return False
        return True

    if marked:
        u, v = _transported(p, _IDENT, x1, x2)
        if in_plane(u, v):
            yield _IDENT, _mix_solver(u, v, W, i0, j0, p)
        return
    matched: dict[tuple, list] = {}  # representative row -> its matches (A, B)
    for a in range(p):
        for b in range(p):
            lam = a or b
            if lam == 1:
                got = matched[a, b] = []
                for c, d in _row_solutions(p, a, b, pencil_x, probes):
                    A = (a, b, c, d)
                    u, v = _transported(p, A, x1, x2)
                    if in_plane(u, v):
                        got.append((A, _mix_solver(u, v, W, i0, j0, p)))
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
        if class_check is None or class_check(_IDENT, ky):
            w = EquivalenceWitness(Mat2.identity(p), Mat2.identity(p), level)
            return Verdict(True, w, checked, level)

    for A, (c, d, e, f) in _span_matches(p, n, kx, ky, marked):
        if A == _IDENT and kx == ky:
            continue  # the shortcut above has checked it
        checked += 1
        if (c * f - d * e) % p not in (1, p - 1):
            continue
        if class_check is not None and not class_check(A, ky):
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
    the total Pontrjagin class of X onto Y's, modulo Y's cohomology ideal.
    Both classes are pontrjagin.reduced_class in Y's ring model, the
    function the census fingerprint reduces with."""
    if not _same_setting(X, Y):
        return Verdict(False, None, 0, LEVEL_HOMEO)
    p, n = X.p, X.n
    classes = []  # Y's model and reduced class: built on the first check

    def class_check(A: tuple, ky: tuple) -> bool:
        # lazily, so _span_matches refuses above the GL2 cap and prunes by
        # pencil profile before any ring model is built; ky is Y's k-pair,
        # which _decide has already computed.  X's class moved by A is the
        # class of X's columns relabelled by A (forms.substitute_columns);
        # reduction is linear and idempotent, so reduce(moved - cls_y)
        # vanishes iff reduce(moved) equals the reduced class of Y
        if not classes:
            model = ring_model(p, n, ky)
            classes[:] = model, reduced_class(model, Y.rotation_pairs(), n - 1)
        model_y, cls_y = classes
        return reduced_class(model_y, substitute_columns(p, A, X.rotation_pairs()), n - 1) == cls_y

    return _decide(X, Y, LEVEL_HOMEO, marked, class_check)


def _transport_class(model, A: tuple, comps) -> tuple[tuple[int, ...], ...]:
    """The graded class comps (coefficient tuples of polynomial degree 2k,
    k = 1, 2, ...) carried along the substitution A and reduced by model.
    The census moves reduced classes with it, which have no columns; a
    space's own class moves with its columns (forms.substitute_columns)."""
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
    p, n = X.p, X.n
    return _matching_substitutions(p, n, k_pair(p, n, X.R, X.Q), k_pair(p, n, Y.R, Y.Q))


def _matching_substitutions(p, n, kx_pair, ky_pair) -> tuple[tuple, ...]:
    return tuple(
        A
        for A, (c, d, e, f) in _span_matches(p, n, kx_pair, ky_pair)
        if (c * f - d * e) % p in (1, p - 1)
    )


# ---------------------------------------------------------------------------
# canonical forms: orbit of the k-invariant pair under (A, B)

# (p, n) -> {orbit member: (canonical pair, a0, Stab(canonical pair))}
_ORBITS: dict[tuple, dict] = {}

# Largest (A, B) orbit _canonicalize builds: every orbit at (13, 2) fits (the
# largest seen holds 1,192,464 pairs, ~150 MB peak), while (11, 3), (13, 3) and
# (17, 2) orbits run from 4,356,000 pairs up and are refused.
ORBIT_SIZE_CAP = 2_000_000


def _orbit_size(p: int, stabiliser: int) -> int:
    """Number of pairs in an (A, B) orbit whose pairs each have stabiliser
    self-witnesses A, by orbit-stabiliser: |GL2| * |{det B = +-1}| over the
    stabiliser (each self-witness has exactly one mix, since the transported
    pair is independent)."""
    return (p * p - 1) * (p * p - p) * 2 * p * (p * p - 1) // stabiliser


def _b_orbit_min(p: int, n: int, u: tuple, v: tuple) -> tuple[tuple, tuple]:
    """The least pair in the det +-1 orbit of the independent pair (u, v) of
    degree-n coefficient tuples, in closed form.

    Every pair of the orbit spans the plane of (u, v), and its wedge is that
    of (u, v) times the mix's determinant, +-1.  Let s1, s2 be the plane's
    rref rows, with pivots a < b (see gfp.wedge_span_key), and delta the
    minor of (u, v) at (a, b), its first nonzero one.  The least nonzero
    vector of the plane is s2, and a partner y = alpha*s1 + beta*s2 of s2
    has minor -alpha at (a, b), so alpha = +-delta; the least such y takes
    beta = 0 and alpha = min(delta, p - delta)."""
    w = wedge(u, v, p)
    s1, s2 = wedge_span_key(w, n + 1, p)
    delta = next(x for x in w if x)
    c = min(delta, p - delta)
    return s2, tuple([c * x % p for x in s1])


def _canonicalize(p: int, n: int, key: tuple) -> tuple[tuple, tuple, tuple[tuple, ...]]:
    """The class record of a k-coefficient pair under the (A, B) action:
    (canon, a0, stab), with canon the orbit minimum, a0 a substitution
    carrying this pair onto it, and stab = Stab(canon), the substitutions
    A, in row-major order, with a det +-1 mix carrying canon onto itself.

    A cache miss walks once for the self-witnesses of key, Stab(key), which
    size the orbit (see _orbit_size): one above ORBIT_SIZE_CAP pairs is
    refused with CapacityError before any of it is built.
    Substitution and mix commute, so the orbit is the union over A in GL2 of
    the B-orbits of the transported pair key.A, each keyed by its least
    member: equal keys mean the same B-orbit, so the least A per key stands
    for its B-orbit, the canonical form is the least key and a_canon its A.
    Every A in GL2 is lam * A' for one unit lam and one PGL2 representative
    A', whose first nonzero entry is 1, and key.(lam * A') = lam^n * key.A'.
    So one pass transports key by the p(p^2 - 1) representatives alone, in
    row-major order (singular ones skipped), and keys each lam * A' in
    closed form: if _b_orbit_min gives (s2, y) for key.A', y = c * s1, then
    scaling by lam^n multiplies the wedge by h = lam^2n, so the key of
    lam^n * key.A' is (s2, r * y) with r = +-h, the sign putting r * c in
    1 .. (p - 1) / 2.  The key depends on lam only through +-h, and the
    least lam gives the least lam * A' (lam is its first nonzero entry), so
    each representative is keyed once per class of units with equal
    +-lam^2n, at the least lam of the class.  Each key keeps its least A,
    with the vectors lam^n * key.A'.
    a_canon carries key onto canon, so stab = a_canon^-1 * Stab(key) *
    a_canon, sorted.  Then, in row-major order of their A, each B-orbit's
    members, its det +-1 mixes (index pairs into the p^2 combinations
    c*u + d*v, zipped from one shared gfp.plane_column per coordinate), are
    written once into the store, all with record (canon, A^-1 * a_canon,
    stab), one stab tuple per class: witnesses compose as
    A_key->x ^-1 * A_key->min.
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
    # (lam, lam^n, lam^2n): the least unit lam of each class {lam : lam^2n = +-h}
    scalars = []
    for lam in range(1, p):
        h = pow(lam, 2 * n, p)
        if all(h not in (g, p - g) for _, _, g in scalars):
            scalars.append((lam, pow(lam, n, p), h))
    first: dict[tuple, tuple] = {}  # B-orbit minimum -> (its least A, lam^n, key.(A / lam))
    for a, b in [(0, 1)] + [(1, b) for b in range(p)]:
        for c, d in itertools.product(range(p), repeat=2):
            if (a * d - b * c) % p:
                A = (a, b, c, d)
                M = substitution_matrix(p, n, A)
                u = apply_matrix(M, x1, p)
                v = apply_matrix(M, x2, p)
                s2, y = _b_orbit_min(p, n, u, v)
                lead = next(x for x in y if x)
                for lam, t, h in scalars:
                    r = h if 2 * (lead * h % p) < p else p - h
                    b_min = (s2, tuple([r * x % p for x in y]))
                    lam_a = tuple([lam * x % p for x in A])
                    got = first.get(b_min)
                    if got is None or lam_a < got[0]:
                        first[b_min] = (lam_a, t, u, v)
    canon = min(first)
    a_canon = first[canon][0]
    a_inv = mat2_inv(a_canon, p)
    stab = tuple(sorted(mat2_mul(mat2_mul(a_inv, g, p), a_canon, p) for g in stabiliser))
    mixes = [
        (c * p + d, e * p + f)
        for c, d, e, f in itertools.product(range(p), repeat=4)
        if (c * f - d * e) % p in (1, p - 1)
    ]
    for A, t, u, v in sorted(first.values()):
        u, v = (tuple([t * x % p for x in w]) for w in (u, v))
        entry = (canon, mat2_mul(mat2_inv(A, p), a_canon, p), stab)
        lin = list(zip(*[plane_column(p, x, y) for x, y in zip(u, v)]))
        for i, j in mixes:
            cache[lin[i], lin[j]] = entry
    return cache[key]


def canonical_form(X: RotationData) -> tuple[HomogeneousForm, HomogeneousForm]:
    """Lexicographically least element of the k-invariant pair's orbit under
    the (A, B) action; equal canonical forms characterize homotopy
    equivalence, so this is the census grouping key.  X must be free."""
    _require_hypotheses(X.p, X.n)
    _require_free(X)
    canon = _canonicalize(X.p, X.n, k_pair(X.p, X.n, X.R, X.Q))[0]
    return (HomogeneousForm(X.p, canon[0]), HomogeneousForm(X.p, canon[1]))


# ---------------------------------------------------------------------------
# classical one-lens-space baselines

def _validate_lens(p, n, r, rprime):
    require_odd_prime(p)
    if n < 1:
        raise InvalidDimension(f"lens spaces need n >= 1 rotation numbers, got {n}")
    if len(r) != n or len(rprime) != n:
        raise InvalidRotation(f"rotation tuples must have length n = {n}")
    units = _lens_rotations(p, (*r, *rprime))
    return units[:n], units[n:]


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
