"""Rotation data for linear (Z/p)^2 actions on S^(2n-1) x S^(2n-1), and the freeness test.

A diagonal linear action of (Z/p)^2 on the product of two (2n-1)-spheres is
recorded by two vectors R, Q in (Z/p)^(2n): column i holds the pair of
rotation numbers by which the two generators act on the i-th complex
coordinate; the first n columns rotate the first sphere, the last n the
second.  The action is free exactly when no nontrivial group element
simultaneously fixes a coordinate circle on each sphere, i.e. when no
nontrivial (g1, g2) has g1*R[i] + g2*Q[i] = 0 for some i < n and
g1*R[j] + g2*Q[j] = 0 for some j >= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidDimension, InvalidRotation, InvalidSpan
from .gfp import inv, require_odd_prime


@dataclass(frozen=True)
class RotationData:
    """One quotient space, as (p, n) plus the two rotation vectors of length 2n."""

    p: int
    n: int
    R: tuple[int, ...]
    Q: tuple[int, ...]

    def rotation_pairs(self) -> tuple[tuple[int, int], ...]:
        """Columns (R[i], Q[i]) for i = 0..2n-1."""
        return tuple(zip(self.R, self.Q))


@dataclass(frozen=True)
class FreenessReport:
    free: bool
    violating_element: tuple[int, int] | None
    violating_pair: tuple[int, int] | None

    def to_json(self) -> dict:
        return {
            "free": self.free,
            "violating_element": list(self.violating_element) if self.violating_element else None,
            "violating_pair": list(self.violating_pair) if self.violating_pair else None,
        }


def validate(data: RotationData) -> RotationData:
    """Normalize raw integer data and check it describes a genuine 2-plane of rotations.

    Entries are reduced mod p; p must be an odd prime, n >= 2, and the
    2 x 2n matrix [R; Q] must have rank 2.
    """
    require_odd_prime(data.p)
    if not isinstance(data.n, int) or data.n < 2:
        raise InvalidDimension(f"need n >= 2, got {data.n!r}")
    R = tuple(int(x) % data.p for x in data.R)
    Q = tuple(int(x) % data.p for x in data.Q)
    if len(R) != 2 * data.n or len(Q) != 2 * data.n:
        raise InvalidDimension(
            f"rotation vectors must have length 2n = {2 * data.n}, got {len(R)} and {len(Q)}"
        )
    if not _rank2(R, Q, data.p):
        raise InvalidSpan("R and Q must span a 2-dimensional subspace of (Z/p)^(2n)")
    return RotationData(data.p, data.n, R, Q)


def from_json(obj: dict) -> RotationData:
    """Parse the {"p":..,"n":..,"R":[..],"Q":[..]} space format; entries may be
    unreduced but must be JSON integers (not floats, strings or booleans)."""
    try:
        p, n, R, Q = obj["p"], obj["n"], obj["R"], obj["Q"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"space object needs integer p, n and integer lists R, Q: {exc}")
    # type(x) is int: bool is an int subclass, but true/false is no rotation number
    if not (isinstance(R, list) and isinstance(Q, list)) or any(
        type(x) is not int for x in (p, n, *R, *Q)
    ):
        raise ValueError(f"space object needs integer p, n and integer lists R, Q, got {obj!r}")
    return validate(RotationData(p, n, tuple(R), tuple(Q)))


def to_json(data: RotationData) -> dict:
    return {"p": data.p, "n": data.n, "R": list(data.R), "Q": list(data.Q)}


def is_free(data: RotationData) -> FreenessReport:
    """Decide freeness from the n^2 column blocks, reporting the first
    violation of a scan over all nontrivial group elements.

    The scan runs g1 fastest ((1,0),(2,0),...,(0,1),(1,1),...); the witness
    is the first violating element in that order, with (i, j) the first
    violating column pair, 1-based within each block.  Columns i and j are
    both rotated trivially by some g != 0 iff their 2x2 block is singular,
    and then the g doing so are the annihilator line of the block's nonzero
    column (every g if both are zero), whose first element in scan order is
    (-y/x, 1) for a column (x, y) with x != 0, and (1, 0) otherwise.
    """
    p, n = data.p, data.n
    cols = [(r % p, q % p) for r, q in zip(data.R, data.Q)]
    best = None
    for x1, y1 in cols[:n]:
        for x2, y2 in cols[n:]:
            if (x1 * y2 - y1 * x2) % p:
                continue
            x, y = (x1, y1) if x1 or y1 else (x2, y2)
            g = (-y * inv(x, p) % p, 1) if x else (1, 0)
            if best is None or (g[1], g[0]) < (best[1], best[0]):
                best = g
    if best is None:
        return FreenessReport(True, None, None)
    g1, g2 = best
    fixed = [(g1 * x + g2 * y) % p == 0 for x, y in cols]
    return FreenessReport(False, best, (fixed.index(True) + 1, fixed.index(True, n) - n + 1))


def is_free_plane_form(data: RotationData) -> bool:
    """Equivalent plane formulation: the span of {R, Q} meets each coordinate
    2-plane B_ij (column i from the first block, j from the second) only at 0.

    The span intersects B_ij nontrivially iff the 2x2 matrix
    [[R[i], Q[i]], [R[j], Q[j]]] is singular, so freeness is n^2 determinant
    checks: the n^2 cross-block minors of [R; Q], the cross-block Pluecker
    coordinates of the span (entries of gfp.wedge(R, Q, p)), are all units.
    is_free decides by the same blocks and adds the scan-order witness.
    """
    return _free_by_planes(data.R, data.Q, data.p, data.n)


def _free_by_planes(R, Q, p, n) -> bool:
    """is_free_plane_form on bare rotation vectors: every cross-block
    Pluecker coordinate R[i]*Q[j] - Q[i]*R[j] (i < n <= j) is nonzero mod p.
    Unchecked."""
    for i in range(n):
        ri, qi = R[i], Q[i]
        for j in range(n, 2 * n):
            if (ri * Q[j] - qi * R[j]) % p == 0:
                return False
    return True


def _rank2(R, Q, p) -> bool:
    """R != 0 and Q is off the line of R: some a*Q[j] - b*R[j] is nonzero,
    with (a, b) = (R[i], Q[i]) at R's first nonzero entry.  A plain loop,
    because the census calls it on every pair it scans.  Unchecked."""
    for i, a in enumerate(R):
        if a:
            b = Q[i]
            for x, y in zip(R, Q):
                if (a * y - b * x) % p:
                    return True
            return False
    return False


def product_of_lens_spaces(
    p: int, r: Sequence[int], rprime: Sequence[int]
) -> RotationData:
    """Rotation data of L(p; r) x L(p; r'): R = (r, 0..0), Q = (0..0, r').

    All rotation numbers must be units mod p; such product actions are
    always free (each generator acts freely on its own factor).
    """
    require_odd_prime(p)
    n = len(r)
    if n < 2 or len(rprime) != n:
        raise InvalidDimension("need len(r) = len(rprime) = n >= 2")
    r = tuple(int(x) % p for x in r)
    rp = tuple(int(x) % p for x in rprime)
    if any(x == 0 for x in r) or any(x == 0 for x in rp):
        raise InvalidRotation("lens-space rotation numbers must be nonzero mod p")
    return validate(RotationData(p, n, r + (0,) * n, (0,) * n + rp))
