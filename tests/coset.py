"""Exact GL4 double-coset algebra over Q_p.

Matrices live in M_4(Q) with a distinguished prime p; membership in the
arithmetic subgroups (GL4(Z_p), mirahoric level subgroups, the
(2,2)-parabolic and its opposite unipotent radical) is decided purely from
entry valuations.  The centerpiece reduces a lower-block unipotent to the
canonical representative with a single p-power entry in position (4,2),
returning a left-parabolic / right-level-subgroup witness pair that is
re-verified by exact multiplication.  The printed Kostant, w6 and
Levi-conjugation identities are checked against these predicates in the
tests (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from rscong.exactnum import ExactError, vp


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


def unipotent(x, y, z, w, p: int) -> PadicMat:
    """Lower-block unipotent with lower-left block [[x, y], [z, w]]."""
    return PadicMat.of([[1, 0, 0, 0], [0, 1, 0, 0], [x, y, 1, 0], [z, w, 0, 1]], p)


def xi(j: int, p: int) -> PadicMat:
    """Canonical representative: identity plus p^j in position (4,2)."""
    m = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, Fraction(p) ** j, 0, 1]]
    return PadicMat.of(m, p)


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
