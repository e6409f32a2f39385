"""Exact GL4 double-coset algebra over Q_p.

Matrices live in M_4(Q) with a distinguished prime p; membership in the
arithmetic subgroups (GL4(Z_p), Iwahori, mirahoric level subgroups, the
(2,2)-parabolic and its opposite unipotent radical) is decided purely from
entry valuations.  The centerpiece reduces a lower-block unipotent to the
canonical representative with a single p-power entry in position (4,2),
returning a left-parabolic / right-level-subgroup witness pair that is
re-verified by exact multiplication.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import ExactError, vp


def _mat(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


IDENTITY4 = _mat([[1 if i == j else 0 for j in range(4)] for i in range(4)])


@dataclass(frozen=True)
class PadicMat:
    """4x4 matrix over Q with a distinguished prime p."""

    entries: tuple
    p: int

    @staticmethod
    def of(rows, p: int) -> "PadicMat":
        return PadicMat(_mat(rows), p)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def mul(self, other: "PadicMat") -> "PadicMat":
        assert self.p == other.p
        a, b = self.entries, other.entries
        rows = [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)]
        return PadicMat(_mat(rows), self.p)

    def det(self) -> Fraction:
        # cofactor expansion; 4x4 over exact rationals
        a = self.entries

        def det3(m):
            return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                    - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                    + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

        total = Fraction(0)
        for j in range(4):
            minor = [[a[i][jj] for jj in range(4) if jj != j] for i in range(1, 4)]
            total += (-1) ** j * a[0][j] * det3(minor)
        return total

    def inverse(self) -> "PadicMat":
        # Gauss-Jordan over Q
        n = 4
        a = [list(row) for row in self.entries]
        inv = [[Fraction(i == j) for j in range(n)] for i in range(n)]
        for c in range(n):
            piv = next((r for r in range(c, n) if a[r][c] != 0), None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            a[c], a[piv] = a[piv], a[c]
            inv[c], inv[piv] = inv[piv], inv[c]
            f = a[c][c]
            a[c] = [x / f for x in a[c]]
            inv[c] = [x / f for x in inv[c]]
            for r in range(n):
                if r != c and a[r][c] != 0:
                    f = a[r][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[c])]
        return PadicMat(_mat(inv), self.p)

    # -- membership predicates (valuation conditions) -----------------------
    def in_gl4_zp(self) -> bool:
        ok = all(vp(x, self.p) >= 0 for row in self.entries for x in row)
        return ok and vp(self.det(), self.p) == 0

    def in_iwahori(self) -> bool:
        if not self.in_gl4_zp():
            return False
        return all(vp(self.entries[i][j], self.p) >= 1
                   for i in range(4) for j in range(4) if i > j)

    def in_mirahoric(self, n: int) -> bool:
        """Last row congruent to (0,0,0,1) mod p^n inside GL4(Z_p)."""
        if not self.in_gl4_zp():
            return False
        row = self.entries[3]
        return (all(vp(row[j], self.p) >= n for j in range(3))
                and vp(row[3] - 1, self.p) >= n)

    def in_parabolic(self) -> bool:
        """The (2,2) block-upper parabolic P(Q_p)."""
        a = self.entries
        if any(a[i][j] != 0 for i in (2, 3) for j in (0, 1)):
            return False
        return self.det() != 0

    def in_up_minus_zp(self) -> bool:
        a = self.entries
        for i in range(4):
            for j in range(4):
                if i == j:
                    if a[i][j] != 1:
                        return False
                elif i >= 2 and j <= 1:
                    if vp(a[i][j], self.p) < 0:
                        return False
                elif a[i][j] != 0:
                    return False
        return True

    def levi_blocks(self) -> tuple[tuple, tuple]:
        a = self.entries
        return ((a[0][0], a[0][1]), (a[1][0], a[1][1])), \
               ((a[2][2], a[2][3]), (a[3][2], a[3][3]))


def unipotent(x, y, z, w, p: int) -> PadicMat:
    """Lower-block unipotent with lower-left block [[x, y], [z, w]]."""
    return PadicMat.of([[1, 0, 0, 0], [0, 1, 0, 0], [x, y, 1, 0], [z, w, 0, 1]], p)


def xi(j: int, p: int) -> PadicMat:
    """Canonical representative: identity plus p^j in position (4,2)."""
    m = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, Fraction(p) ** j, 0, 1]]
    return PadicMat.of(m, p)


# ---------------------------------------------------------------------------
# Kostant representatives
# ---------------------------------------------------------------------------

_KOSTANT_PERMS = (
    # images of (row of the 1 in each column) as printed 4x4 permutation mats
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]],
    [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]],
    [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
)


def kostant_reps(p: int = 2) -> list[PadicMat]:
    """The six minimal-length coset representatives for the (2,2) Levi."""
    return [PadicMat.of(m, p) for m in _KOSTANT_PERMS]


def is_kostant(wmat: PadicMat) -> bool:
    """w^{-1} alpha > 0 for the two simple Levi roots e1-e2, e3-e4.

    For a permutation matrix w with w e_j = e_{sigma(j)}, the root e_i - e_j
    pulls back to e_{sigma^{-1}(i)} - e_{sigma^{-1}(j)}, positive iff
    sigma^{-1}(i) < sigma^{-1}(j).
    """
    a = wmat.entries
    sigma_inv = {}
    for j in range(4):
        i = next(i for i in range(4) if a[i][j] == 1)
        sigma_inv[i] = j  # w e_j = e_i  =>  sigma(j) = i
    return sigma_inv[0] < sigma_inv[1] and sigma_inv[2] < sigma_inv[3]


# ---------------------------------------------------------------------------
# reduction of unipotents to the canonical representatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CosetClass:
    j: int
    left: PadicMat   # element of P(Q_p)
    right: PadicMat  # element of K_p^(n'+n)
    level: int       # n' + n

    def verify(self, u: PadicMat) -> bool:
        """xi^(j) == left * u * right, with memberships."""
        prod = self.left.mul(u).mul(self.right)
        return (prod.entries == xi(self.j, u.p).entries
                and self.left.in_parabolic()
                and self.right.in_mirahoric(self.level))


class ReductionError(ExactError):
    pass


def _diag(d1, d2, d3, d4, p) -> PadicMat:
    return PadicMat.of([[d1, 0, 0, 0], [0, d2, 0, 0], [0, 0, d3, 0], [0, 0, 0, d4]], p)


def reduce_unipotent(u: PadicMat, n_prime: int, n: int) -> CosetClass:
    """Class of P(Q_p) u K_p^(n'+n) among the canonical representatives.

    Follows the three elimination steps (kill the (4,1) entry against the
    valuation-sorted pivot, then (3,2), then (3,1)), accumulating exact
    left-parabolic / right-level-subgroup witness factors, and finishes by
    scaling the surviving (4,2) entry to a pure p-power.  A class index
    >= n'+n collapses to the trivial coset.
    """
    p = u.p
    level = n_prime + n
    if not u.in_up_minus_zp():
        raise ReductionError("input is not in U_P^-(Z_p)")
    z0, w0 = u[3, 0], u[3, 1]
    for name, val in (("z", z0), ("w", w0)):
        if val != 0 and vp(val, p) < 1:
            raise ReductionError(f"entry {name} must have positive valuation, "
                                 f"got v_p = {vp(val, p)}")
    left = PadicMat(IDENTITY4, p)
    right = PadicMat(IDENTITY4, p)
    cur = u

    def apply(lf: PadicMat | None, rf: PadicMat | None):
        nonlocal left, right, cur
        if lf is not None:
            left = lf.mul(left)
            cur = lf.mul(cur)
        if rf is not None:
            right = right.mul(rf)
            cur = cur.mul(rf)

    # step 0: arrange v(z) >= v(w) with w != 0 when possible; the swap
    # permutation fixes the lower-right block and lies in P and in K.
    z, w = cur[3, 0], cur[3, 1]
    if (w == 0 and z != 0) or (z != 0 and w != 0 and vp(z, p) < vp(w, p)):
        swap = PadicMat.of([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], p)
        apply(swap, swap)
    z, w = cur[3, 0], cur[3, 1]

    if z == 0 and w == 0:
        # lower row already trivial: cur is in K, so the class is trivial
        j = level
        apply(None, cur.inverse().mul(xi(j, p)))
    else:
        # step 1: kill z = (4,1) against the pivot w using
        # cur = [[U,0],[M,I]] * B * C, B = 1 + p^d E_21, C = diag(zw^-1p^-d,1,1,1)
        if z != 0:
            d = int(vp(z, p)) - int(vp(w, p))
            pd = Fraction(p) ** d
            u11 = w / z * pd
            B = PadicMat.of([[1, 0, 0, 0], [pd, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], p)
            C = _diag(1 / u11, 1, 1, 1, p)
            L = PadicMat.of([[1 / u11, 0, 0, 0], [z / w, 1, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 1]], p)
            apply(L, B.mul(C).inverse())
            if cur[3, 0] != 0:
                raise ReductionError("z-elimination failed")
        # step 2: kill y = (3,2) against w
        y = cur[2, 1]
        if y != 0:
            w = cur[3, 1]
            pv = Fraction(p) ** int(vp(y, p))
            B = PadicMat.of([[1, 0, 0, 0], [0, 1, 0, 0], [0, pv, 1, 0], [0, 0, 0, 1]], p)
            C = _diag(1, y / pv, 1, 1, p)
            L = _diag(1, y / pv, 1, 1, p)  # inverse of the diag(1, pv/y) block
            apply(L, B.mul(C).inverse())
            if cur[2, 1] != 0:
                raise ReductionError("y-elimination failed")
        # step 3: strip x = (3,1); the elementary factor is already in K
        x = cur[2, 0]
        if x != 0:
            apply(None, PadicMat.of([[1, 0, 0, 0], [0, 1, 0, 0],
                                     [-x, 0, 1, 0], [0, 0, 0, 1]], p))
        # step 4: scale the surviving (4,2) entry to p^t
        w = cur[3, 1]
        t = int(vp(w, p))
        unit = w / Fraction(p) ** t
        if unit != 1:
            apply(_diag(1, unit, 1, 1, p), _diag(1, 1 / unit, 1, 1, p))
        # step 5: cap at the level
        j = min(t, level)
        if t > level:
            apply(None, cur.inverse().mul(xi(level, p)))

    cls = CosetClass(j, left, right, level)
    if cur.entries != xi(j, p).entries or not cls.verify(u):
        raise ReductionError("witness verification failed")
    return cls


# ---------------------------------------------------------------------------
# Levi projections of the stabilizers
# ---------------------------------------------------------------------------

def levi_projection_level(i: int, n_prime: int, n: int) -> tuple[int, int]:
    """GL2 x GL2 level pair of the Levi projection of P cap xi K xi^{-1}."""
    level = n_prime + n
    if not 0 <= i <= level:
        raise ExactError(f"need 0 <= i <= {level}")
    return (level - i, i)


def gl2_in_k1_level(block: tuple, p: int, m: int) -> bool:
    """Is a 2x2 block in K_p(m): integral, unit det, last row = (0,1) mod p^m."""
    (a, b), (c, d) = block
    if any(vp(t, p) < 0 for t in (a, b, c, d)):
        return False
    if vp(a * d - b * c, p) != 0:
        return False
    return vp(c, p) >= m and vp(d - 1, p) >= m


def sample_parabolic_stabilizer(i: int, n_prime: int, n: int, p: int,
                                rng: random.Random) -> PadicMat:
    """A random element of P(Q_p) cap xi^(i) K_p^(n'+n) xi^(-i).

    Sampled as xi k xi^{-1} for random k in the level subgroup, retried until
    the conjugate lands in the parabolic; the acceptance conditions come from
    the (4,1), (4,2)-type entries, so rejection is mild for small levels.
    """
    level = n_prime + n
    x = xi(i, p)
    xinv = x.inverse()
    span = p ** (level + 3)
    while True:
        rows = [[rng.randrange(span) for _ in range(4)] for _ in range(4)]
        for j in range(3):
            rows[3][j] = p ** level * rng.randrange(p ** 3)
        rows[3][3] = 1 + p ** level * rng.randrange(p ** 3)
        k = PadicMat.of(rows, p)
        if not k.in_gl4_zp():
            continue
        g = x.mul(k).mul(xinv)
        if g.in_parabolic():
            return g


def lift_levi_pair(A, D, i: int, n_prime: int, n: int, p: int) -> PadicMat | None:
    """Find g in P with Levi blocks (A, D) and xi^(-i) g xi^(i) in K.

    Searches the off-diagonal block over residues mod p^(n'+n); used to verify
    that the Levi projection really reaches K(n'+n-i) x K(i).
    """
    level = n_prime + n
    x = xi(i, p)
    xinv = x.inverse()
    span = p ** level
    vals = range(span)
    for b11 in vals:
        for b12 in vals:
            for b21 in vals:
                for b22 in vals:
                    g = PadicMat.of([
                        [A[0][0], A[0][1], b11, b12],
                        [A[1][0], A[1][1], b21, b22],
                        [0, 0, D[0][0], D[0][1]],
                        [0, 0, D[1][0], D[1][1]]], p)
                    if xinv.mul(g).mul(x).in_mirahoric(level):
                        return g
    return None


# ---------------------------------------------------------------------------
# global representatives
# ---------------------------------------------------------------------------

def global_representatives(N: int, N2: int) -> list[dict]:
    """Tuples (i_p) over p | N*N2 with the induced GL2 x GL2 level pairs.

    Returns one record per tuple with levels (N*N2/N_i, N_i); the two
    distinguished tuples corresponding to (n_p) and (n'_p) are flagged.
    """
    if N < 1 or N2 < 1:
        raise ExactError("levels must be positive")
    NN = N * N2
    ps = sorted({q for q in range(2, NN + 1) if NN % q == 0 and _is_prime_int(q)})
    exps = {q: vp(Fraction(NN), q) for q in ps}

    def tuples(idx):
        if idx == len(ps):
            yield {}
            return
        q = ps[idx]
        for rest in tuples(idx + 1):
            for e in range(int(exps[q]) + 1):
                d = dict(rest)
                d[q] = e
                yield d

    out = []
    for tup in tuples(0):
        Ni = 1
        for q, e in tup.items():
            Ni *= q ** e
        rec = {
            "i": dict(sorted(tup.items())),
            "levels": (NN // Ni, Ni),
            "is_xi_N": all(tup[q] == vp(Fraction(N), q) for q in ps),
            "is_xi_N2": all(tup[q] == vp(Fraction(N2), q) for q in ps),
        }
        out.append(rec)
    return out


def _is_prime_int(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# ---------------------------------------------------------------------------
# printed identities (ground-truth checks)
# ---------------------------------------------------------------------------

def w6_identities_check(p: int = 5) -> dict:
    """Exact verification of the printed ground-truth identities: the
    Kostant-representative relations, the factorization of w6 through the
    distinguished unipotent representative, and the measure-scaling law for
    Levi conjugation on step functions.  Any failure raises.  The symbolic
    block identities are checked by a sympy oracle in the tests."""
    w = kostant_reps(p)
    k1 = PadicMat.of([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], p)
    k2 = PadicMat.of([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], p)
    results = {}
    results["w4_eq_w6_k"] = w[3].entries == w[5].mul(k1).entries and k1.in_mirahoric(0)
    results["w5_eq_w6_k"] = w[4].entries == w[5].mul(k2).entries and k2.in_mirahoric(0)
    f1 = PadicMat.of([[1, 0, 0, 0], [0, -1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], p)
    f2 = xi(0, p)
    f3 = PadicMat.of([[1, 0, 0, 0], [0, 1, 0, -1], [0, 0, 1, 0], [0, 0, 0, 1]], p)
    f4 = PadicMat.of([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], p)
    results["w6_factorization"] = (
        w[5].entries == f1.mul(f2).mul(f3).mul(f4).entries
        and f1.in_parabolic() and f3.in_gl4_zp() and f4.in_gl4_zp())
    results["kostant_condition"] = all(is_kostant(wi) for wi in w)
    bad = PadicMat.of([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], p)
    results["levi_transposition_rejected"] = not is_kostant(bad)
    # Levi conjugation scales sub-integral step functions by delta^(-1/2):
    # conjugating the (x1, x2, x4) box prod p^(a_i) Z_p by t = t(x3)-type
    # with |x3| = p^(-v) rescales two of the three coordinates by p^v.
    rng = random.Random(7)
    ok = True
    for _ in range(50):
        v = rng.randrange(1, 4)
        a1, a2, a4 = (rng.randrange(0, 4) for _ in range(3))
        vol_before = Fraction(1, p ** (a1 + a2 + a4))
        vol_after = Fraction(1, p ** ((a1 + v) + a2 + (a4 + v)))
        delta = Fraction(p) ** (4 * v)  # delta(t) = |x3|^(-4)
        half_power_of_delta = Fraction(p) ** (2 * v)
        ok = ok and vol_after * half_power_of_delta == vol_before
    results["levi_conjugation_measure"] = ok
    failures = [k for k, v in results.items() if not v]
    if failures:
        raise ExactError(f"identity checks failed: {failures}")
    return results
