"""Generate the committed weight-13, level-3 newform fixtures.

The graded ring of modular forms for Gamma_1(3) is freely generated by the
weight-1 theta series of the hexagonal lattice and a weight-3 Eisenstein
series.  That gives an exact basis of M_13(Gamma_1(3), chi_{-3}) as the five
monomials A^13, A^10 B, A^7 B^2, A^4 B^3, A B^4; diagonalizing T_2 on it
yields the two cuspidal Galois orbits (one rational, one quadratic) that the
acceptance suite ingests.  Run from the repository root:

    python3 tools/gen_level3_fixtures.py --n-max 6000 --out tests/fixtures

The script validates the output (Hecke multiplicativity, Deligne bound,
triple congruence with the weight-13 Eisenstein series mod the ramified
prime over 13) before writing anything.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rscong.congruence import check_congruent
from rscong.exactnum import AlgNum, QuadField, RATIONAL, factor_rational_prime, quad_normalize
from rscong.forms import (NewformData, char_from_kronecker, divisor_sum, eisenstein_qexp,
                          series_mul, trivial_char)
from rscong.ingest import load_fixture, newform_record, save_fixture

CHI = char_from_kronecker(-3)
ONE = trivial_char()
WEIGHT = 13
LEVEL = 3


def theta_a2(n_max: int) -> list[int]:
    """Weight-1 generator: 1 + 6 sum_n (sum_{d|n} chi_{-3}(d)) q^n."""
    return [1] + [6 * s for s in divisor_sum(1, ONE, CHI, n_max)[0][1:]]


def eis3(n_max: int) -> list[int]:
    """Weight-3 generator: sum_n (sum_{d|n} chi_{-3}(n/d) d^2) q^n."""
    return list(divisor_sum(3, CHI, ONE, n_max)[0])


def basis_m13(n_max: int) -> list[list[int]]:
    a = theta_a2(n_max)
    b = eis3(n_max)
    a2 = series_mul(a, a, n_max)
    a4 = series_mul(a2, a2, n_max)
    a8 = series_mul(a4, a4, n_max)
    b2 = series_mul(b, b, n_max)
    b4 = series_mul(b2, b2, n_max)
    a13 = series_mul(series_mul(a8, a4, n_max), a, n_max)
    a10b = series_mul(series_mul(a8, a2, n_max), b, n_max)
    a7b2 = series_mul(series_mul(a4, series_mul(a2, a, n_max), n_max), b2, n_max)
    a4b3 = series_mul(a4, series_mul(b2, b, n_max), n_max)
    ab4 = series_mul(a, b4, n_max)
    return [a13, a10b, a7b2, a4b3, ab4]


def t2_series(f: list[int], n_half: int) -> list[Fraction]:
    """T_2 on M_13(3, chi): a_n -> a_{2n} + chi(2) 2^12 a_{n/2}."""
    chi2 = -1
    out = [Fraction(f[0]) * (1 + chi2 * 2 ** 12)]
    for n in range(1, n_half + 1):
        v = Fraction(f[2 * n])
        if n % 2 == 0:
            v += chi2 * 2 ** 12 * f[n // 2]
        out.append(v)
    return out


def coords(series, basis, ncoef=5):
    """Coordinates in the echelon basis (basis_j starts at q^j with coeff 1)."""
    rem = [Fraction(x) for x in series[:ncoef]]
    c = []
    for j in range(ncoef):
        cj = rem[j]
        c.append(cj)
        for n in range(j, ncoef):
            rem[n] -= cj * basis[j][n]
    return c


def char_poly(M):
    """Faddeev-LeVerrier characteristic polynomial of a Fraction matrix.

    Returns [c_0, ..., c_n] with det(xI - M) = sum c_i x^i.
    """
    n = len(M)
    ident = [[Fraction(i == j) for j in range(n)] for i in range(n)]

    def matmul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    coeffs = [Fraction(1)]  # leading
    Mk = [row[:] for row in ident]
    for k in range(1, n + 1):
        Mk = matmul(M, Mk)
        ck = -sum(Mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        for i in range(n):
            Mk[i][i] += ck
    return list(reversed(coeffs))  # c_0 ... c_n


def poly_eval(cs, x):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def deflate(cs, root):
    """Divide polynomial (c_0..c_n) by (x - root)."""
    n = len(cs) - 1
    out = [Fraction(0)] * n
    acc = cs[n]
    for i in range(n - 1, -1, -1):
        out[i] = acc
        acc = cs[i] + acc * root
    assert acc == 0
    return out


def kernel_vector(M, lam, field):
    """One kernel vector of (M - lam) over the given quadratic field."""
    n = len(M)

    def lift(x):
        return x.promote(field) if isinstance(x, AlgNum) else AlgNum.rational(x).promote(field)

    A = [[lift(M[i][j]) - (lift(lam) if i == j else 0) for j in range(n)] for i in range(n)]
    # Gaussian elimination
    piv_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = A[r][c].inverse()
        A[r] = [x * inv for x in A[r]]
        for i in range(n):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    free = [c for c in range(n) if c not in piv_cols]
    assert len(free) == 1, f"eigenspace dimension {len(free)} != 1"
    fc = free[0]
    v = [AlgNum.rational(0).promote(field)] * n
    v[fc] = AlgNum.rational(1).promote(field)
    for row, pc in zip(range(len(piv_cols)), piv_cols):
        v[pc] = -A[row][fc]
    return v


def eigenform_coeffs(basis, v, n_max, field):
    out = [AlgNum.rational(0).promote(field)]
    for n in range(1, n_max + 1):
        acc = AlgNum.rational(0).promote(field)
        for j in range(5):
            if basis[j][n]:
                acc = acc + v[j] * basis[j][n]
        out.append(acc)
    a1 = out[1]
    inv = a1.inverse()
    return [x * inv for x in out]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=6000)
    ap.add_argument("--out", type=Path, default=Path("tests/fixtures"))
    args = ap.parse_args()
    n_max = args.n_max

    print("building basis of M_13(Gamma_1(3)) ...", flush=True)
    basis = basis_m13(max(n_max, 64))
    n_half = min(len(basis[0]) // 2 - 1, 30)

    M = [[None] * 5 for _ in range(5)]
    for j in range(5):
        t2 = t2_series(basis[j], n_half)
        col = coords(t2, basis)
        # verify the expansion matches everywhere we can see
        recon = [sum(col[i] * basis[i][n] for i in range(5)) for n in range(n_half + 1)]
        assert recon == t2[: n_half + 1], "T_2 does not stabilize the span"
        for i in range(5):
            M[i][j] = col[i]

    cs = char_poly(M)
    print("char poly coefficients:", cs)
    # Eisenstein eigenvalues for weight 13, level 3, chi_{-3}
    for ev in (Fraction(-4095), Fraction(4095)):
        assert poly_eval(cs, ev) == 0, f"expected Eisenstein eigenvalue {ev}"
        cs = deflate(cs, ev)
    # rational cusp eigenvalue: integer root within the Deligne bound
    rational_root = None
    for cand in range(-182, 183):
        if poly_eval(cs, Fraction(cand)) == 0:
            rational_root = Fraction(cand)
            break
    assert rational_root is not None, "no rational cuspidal eigenvalue found"
    cs = deflate(cs, rational_root)
    assert len(cs) == 3
    c0, c1, c2 = cs
    t = -c1 / c2
    m = c0 / c2
    disc = t * t - 4 * m
    assert disc.denominator == 1
    d0, fsq = quad_normalize(disc.numerator)
    print(f"rational cusp a(2) = {rational_root}; quadratic pair: "
          f"x^2 - {t} x + {m}, disc = {disc} = {d0} * {fsq}^2")
    assert d0 == -26, f"expected coefficient field Q(sqrt(-26)), got d0={d0}"

    field = QuadField(d0)
    theta = AlgNum(field, t / 2, Fraction(fsq, 2))
    assert theta * theta - t * theta + m == 0

    print("solving eigenvectors ...", flush=True)
    v_rat = kernel_vector(M, AlgNum.rational(rational_root), RATIONAL)
    v_quad = kernel_vector(M, theta, field)

    print("expanding eigenforms ...", flush=True)
    a_rat = eigenform_coeffs(basis, v_rat, n_max, RATIONAL)
    a_quad = eigenform_coeffs(basis, v_quad, n_max, field)
    assert a_quad[2] == theta or a_quad[2] == theta.conj()

    hp = NewformData.from_values(LEVEL, WEIGHT, CHI, a_rat, label="3.13.b.a")
    hpp = NewformData.from_values(LEVEL, WEIGHT, CHI, a_quad, label="3.13.b.b")

    print("validating ...", flush=True)
    pairs = [(m_, n_) for m_ in (2, 3, 4, 5, 7, 9) for n_ in (5, 7, 11, 13)
             if m_ * n_ <= n_max and math.gcd(m_, n_) == 1]
    assert hp.check_hecke_multiplicativity(pairs)
    assert hpp.check_hecke_multiplicativity(pairs)
    assert hp.check_deligne_bound()
    assert hpp.check_deligne_bound()
    # integrality: coefficients should be in Z[sqrt(-26)]
    for n in range(1, min(n_max, 500) + 1):
        assert a_quad[n].a.denominator == 1 and a_quad[n].b.denominator == 1

    l13 = factor_rational_prime(13, field)[0]
    E13 = eisenstein_qexp(13, CHI, 60)
    for name, f in (("h'", hp), ("E13", E13)):
        rep = check_congruent(f, hpp, l13, n_extra=60)
        assert rep.congruent, f"{name}/h'' differ at {rep.first_failure}"
    print("congruences h' = h'' = E13 (mod l | 13) hold to n = 60")

    args.out.mkdir(parents=True, exist_ok=True)
    rec_p = newform_record(hp, field_disc=0)
    rec_pp = newform_record(hpp, field_disc=-8424)
    save_fixture(rec_p, args.out / "3.13.b.a.json")
    save_fixture(rec_pp, args.out / "3.13.b.b.json")
    # round-trip sanity
    for name in ("3.13.b.a.json", "3.13.b.b.json"):
        rt = load_fixture(args.out / name)
        assert rt.a(7) == (hp if name.startswith("3.13.b.a") else hpp).a(7)
    print(f"wrote fixtures to {args.out} (n_max={n_max})")
    print("a(2,h') =", hp.a(2), "  a(2,h'') =", hpp.a(2))


if __name__ == "__main__":
    main()
