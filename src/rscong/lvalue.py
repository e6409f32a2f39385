"""Numerical evaluation of the completed Rankin-Selberg L-function.

Direct summation where the Dirichlet series converges absolutely with a
certifiable tail, and a smoothed two-sided approximate functional equation at
the critical integers.  The smoothing kernel

    G_s(x) = (1/2 pi i) int_(c) L_inf(s + w) x^(-w) dw / w

is the inverse Mellin transform of the archimedean factor divided by w; for
integer s in the critical window it reduces exactly to an incomplete
Bessel-K moment, computed by a stable three-term ladder from two Bessel
values per summation point (`KernelLadder`).  A trapezoidal contour
quadrature kept in the tests is an independent reference for this kernel.

The functional-equation constant is never trusted from a formula: it is
solved numerically from the AFE itself by evaluating at two smoothing scales
(`LEngine.solve_root_number`), then validated through unitarity and
two-probe consistency.

Each `RankinSeries` owns its engines, one per precision (`get_engine`), so
an engine lives as long as its series.  Engines of the same weight k and
working precision share one `KernelLadder` while any of them is alive; the
ladder is freed with the last of them.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

from .exactnum import GUARD_DIGITS, ExactError
from .rankin import RankinSeries, archimedean_factor

#: extra digits on top of P + GUARD_DIGITS for kernel ladders and summation
LADDER_GUARD = 45


class InsufficientCoefficients(ExactError):
    def __init__(self, n_needed: int, message: str = ""):
        self.n_needed = n_needed
        super().__init__(message or f"need Dirichlet coefficients up to n = {n_needed}")


class NormalizationError(ExactError):
    """Root-number solve failed unitarity: wrong conductor or normalization."""


class KernelSpecError(ExactError):
    pass


@dataclass(frozen=True)
class RootNumber:
    eps: object  # mpc
    residual: object  # mpf
    conductor: Fraction


@dataclass(frozen=True)
class LValueResult:
    s: int
    value: object  # mpc
    err_bound: object  # mpf (absolute)
    method: str


# ---------------------------------------------------------------------------
# fast Bessel K for integer order, real argument
# ---------------------------------------------------------------------------

def _besselk01_series(x):
    """(K_0(x), K_1(x)) by the ascending series at boosted precision.

    The series has cancellation of order e^(2x); callers must already have
    raised mp.dps accordingly.  With z = x^2/4 and H_j the harmonic numbers:

        K_0 = -(log(x/2) + gamma) I_0(x) + sum_{j>=1} H_j z^j / (j!)^2
        K_1 = 1/x + log(x/2) I_1(x)
              - (x/4) sum_{j>=0} (H_j + H_{j+1} - 2 gamma) z^j / (j! (j+1)!)
    """
    half = x / 2
    lh = mpmath.log(half)
    z = half * half
    tol = mpmath.eps * 4
    term = mp.mpf(1)
    i0 = mp.mpf(1)
    s0 = mp.mpf(0)
    h = mp.mpf(0)
    j = 0
    while True:
        j += 1
        term = term * z / (j * j)
        h += mp.mpf(1) / j
        i0 += term
        s0 += term * h
        if term < tol * i0 and j > 4:
            break
    k0 = -(lh + mpmath.euler) * i0 + s0
    term = mp.mpf(1)  # z^j / (j! (j+1)!), starting at j = 0
    i1s = term
    comp = term * (0 + 1 - 2 * mpmath.euler)  # H_0 + H_1 - 2 gamma
    hj, hj1 = mp.mpf(0), mp.mpf(1)
    j = 0
    while True:
        j += 1
        term = term * z / (j * (j + 1))
        hj += mp.mpf(1) / j
        hj1 += mp.mpf(1) / (j + 1)
        i1s += term
        comp += term * (hj + hj1 - 2 * mpmath.euler)
        if term < tol * i1s and j > 4:
            break
    i1 = half * i1s
    k1 = 1 / x + lh * i1 - half / 2 * comp
    return k0, k1


def _besselk_asymptotic(nu: int, x, digits: int):
    """Asymptotic expansion; returns None when it cannot reach `digits`."""
    mu4 = 4 * nu * nu
    term = mp.mpf(1)
    acc = mp.mpf(1)
    best = abs(term)
    j = 0
    while True:
        j += 1
        term = term * (mu4 - (2 * j - 1) ** 2) / (8 * x * j)
        if abs(term) >= best:
            break  # divergence point reached
        acc += term
        best = abs(term)
        if best < mp.mpf(10) ** (-digits - 3):
            break
        if j > 400:
            break
    if best > mp.mpf(10) ** (-digits) * abs(acc):
        return None
    return mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.exp(-x) * acc


def besselk_pair(nu: int, x, digits: int):
    """(K_nu(x), K_{nu+1}(x)) for integer nu >= 0 and real x > 0, accurate to
    roughly `digits` significant digits."""
    x = mp.mpf(x)
    with mp.workdps(digits + 12):
        a = _besselk_asymptotic(nu, x, digits)
        if a is not None:
            b = _besselk_asymptotic(nu + 1, x, digits)
            if b is not None:
                return +a, +b
    boost = int(0.8686 * float(x)) + 30
    with mp.workdps(digits + boost):
        k0, k1 = _besselk01_series(x)
        km, kc = k0, k1
        for n in range(1, nu + 1):
            km, kc = kc, km + (2 * n / x) * kc
        return +km, +kc


# ---------------------------------------------------------------------------
# the AFE kernel: exact Bessel ladder
# ---------------------------------------------------------------------------

class KernelLadder:
    """G_s(x) for one archimedean factor (2 pi)^(-2s) Gamma(s) Gamma(s+1-k).

    With nu = k - 1, a = 4 pi sqrt(x) and J(mu; a) = int_a^inf v^mu K_nu dv:

        G_s(x) = (2 pi)^(-2s) 2^(k+1-2s) J(2s - k; a),

    J(nu+1; a) = a^(nu+1) K_{nu+1}(a) exactly, and the ladder

        J(mu+2) = ((mu+1)^2 - nu^2) J(mu) + (mu+1-nu) a^(mu+1) K_nu(a)
                  + a^(mu+2) K_{nu+1}(a)

    reaches every integer s >= k with all terms positive (no cancellation).
    """

    def __init__(self, k: int, digits: int):
        self.k = k
        self.nu = k - 1
        self.digits = digits
        self._cache: dict = {}

    def _entry(self, x_val):
        key = mpmath.mpf(x_val)._mpf_  # exact bits: one entry per point for every engine
        ent = self._cache.get(key)
        if ent is None:
            a = 4 * mpmath.pi * mpmath.sqrt(x_val)
            k0, k1 = besselk_pair(self.nu, a, self.digits)
            ent = {"a": a, "k0": k0, "k1": k1, "J": {self.nu + 1: a ** (self.nu + 1) * k1}}
            self._cache[key] = ent
        return ent

    def bessel_at(self, x_val):
        ent = self._entry(x_val)
        return ent["a"], ent["k0"], ent["k1"]

    def J(self, mu: int, x_val):
        ent = self._entry(x_val)
        J = ent["J"]
        nu = self.nu
        if mu < nu + 1 or (mu - nu) % 2 == 0:
            raise KernelSpecError(f"ladder needs mu >= {nu + 1} with mu - nu odd, got {mu}")
        top = max(J)
        a, k0, k1 = ent["a"], ent["k0"], ent["k1"]
        while top < mu:
            J[top + 2] = (((top + 1) ** 2 - nu * nu) * J[top]
                          + (top + 1 - nu) * a ** (top + 1) * k0
                          + a ** (top + 2) * k1)
            top += 2
        return J[mu]

    def G(self, s: int, x_val):
        mu = 2 * s - self.k
        pref = (2 * mpmath.pi) ** (-2 * s) * mp.mpf(2) ** (self.k + 1 - 2 * s)
        return pref * self.J(mu, x_val)

    def G_zero_limit(self, s: int):
        """G_s(0+) = L_inf(s), used as the kernel mass scale."""
        return ((2 * mpmath.pi) ** (-2 * s) * mpmath.gamma(s)
                * mpmath.gamma(s + 1 - self.k))


# ---------------------------------------------------------------------------
# divisor bound helpers for rigorous tails
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def d4_upto(n: int) -> list[int]:
    """d_4(m) for m <= n: number of ordered factorizations into 4 parts."""
    d2 = [0] * (n + 1)
    for a in range(1, n + 1):
        for m in range(a, n + 1, a):
            d2[m] += 1
    d4 = [0] * (n + 1)
    for a in range(1, n + 1):
        da = d2[a]
        for m in range(a, n + 1, a):
            d4[m] += da * d2[m // a]
    return d4


def tree_sum(vals):
    """Deterministic pairwise summation (reproducible parallel-safe order)."""
    vals = list(vals)
    if not vals:
        return mp.mpf(0)
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

#: the live kernel ladders by (k, digits); an entry goes with its last engine
_ladders: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class LEngine:
    """Evaluator for one Rankin-Selberg series at working precision P digits.

    Tolerances quoted by callers are relative to the returned magnitudes;
    the engine itself targets absolute truncation error below
    10^-(P + 8) times the kernel mass scale of each sum.
    """

    def __init__(self, rs: RankinSeries, P: int):
        self.rs = rs
        self.P = P
        self.dps = P + GUARD_DIGITS + LADDER_GUARD
        self.k, self.k2 = rs.gamma
        self.w = self.k + self.k2 - 2
        ladder = _ladders.get((self.k, self.dps))
        if ladder is None:
            ladder = _ladders[self.k, self.dps] = KernelLadder(self.k, self.dps)
        self.ladder = ladder
        self._emb: list | None = None
        self._emb_conj: list | None = None
        self._root: RootNumber | None = None
        self._pieces_cache: dict = {}
        self._self_dual: bool | None = None
        with mp.workdps(self.dps):
            self.sqrtQ = mpmath.sqrt(mp.mpf(rs.Q.numerator) / rs.Q.denominator)

    # -- coefficient embeddings ---------------------------------------------
    def _embeddings(self, conj: bool) -> list:
        attr = "_emb_conj" if conj else "_emb"
        if getattr(self, attr) is None:
            with mp.workdps(self.dps):
                out = [mpmath.mpc(0)]
                for n in range(1, self.rs.n_max + 1):
                    c = self.rs.b[n]
                    if conj:
                        c = c.conj()
                    out.append(c.embed(self.dps) if c else mpmath.mpc(0))
            setattr(self, attr, out)
        return getattr(self, attr)

    # -- rigorous tail bound for the smoothed sums ---------------------------
    def _afe_tail_bound(self, s: int, q, N: int):
        """Bound on sum_{n>N} d4(n) n^(w/2 - s) G_s((q sqrt(n)/4pi)^2)...

        Uses |b_n| <= d4(n) n^(w/2) <= 8 n^(1 + w/2), the log-convexity bound
        K_nu(a) <= K_nu(a0) e^(a0 - a), and an incomplete-gamma estimate.
        Returns +inf when N is still too small for the estimate to apply.
        """
        mu = 2 * s - self.k
        beta = Fraction(self.k2, 2)  # 1 + w/2 - s + mu/2, independent of s
        aN = q * mpmath.sqrt(N + 1)
        if aN < 2 * mu + 8 or q * mpmath.sqrt(N) < 2 * float(beta) + 8:
            return mp.inf
        xN = (aN / (4 * mpmath.pi)) ** 2
        a0, k0, _ = self.ladder.bessel_at(xN)
        CK = k0 * mpmath.exp(a0)
        pref = (2 * mpmath.pi) ** (-2 * s) * mp.mpf(2) ** (self.k + 1 - 2 * s)
        # single term at n = N+1 plus integral comparison for the rest
        def fterm(n):
            an = q * mpmath.sqrt(n)
            return 8 * mp.mpf(n) ** (1 + Fraction(self.w, 2) - s) * pref * 2 * CK \
                * an ** mu * mpmath.exp(-an)
        b2 = 2 * float(beta) + 1
        gN = q * mpmath.sqrt(N + 1)
        integral = (2 / q ** (2 * float(beta) + 2)) * gN ** b2 * mpmath.exp(-gN) \
            / (1 - b2 / gN)
        integral *= 8 * pref * 2 * CK * q ** mu
        return fterm(N + 1) + integral

    def _smoothed_sum(self, s: int, delta_tag: str, delta, conj: bool,
                      side_exponent: int):
        """sum_n c_n n^(-s) G_s(n * scale) with rigorous adaptive cutoff.

        delta enters as x_n = n/delta (outgoing side) or n*delta/Q (reflected
        side); `side_exponent` +1/-1 selects which, and q = 4 pi sqrt(1/delta)
        or 4 pi sqrt(delta/Q) accordingly.
        """
        rs = self.rs
        emb = self._embeddings(conj)
        with mp.workdps(self.dps):
            Q = mp.mpf(rs.Q.numerator) / rs.Q.denominator
            if side_exponent > 0:
                scale = 1 / delta
            else:
                scale = delta / Q
            q = 4 * mpmath.pi * mpmath.sqrt(scale)
            mass = abs(self.ladder.G_zero_limit(s))
            target = mass * mp.mpf(10) ** (-(self.P + 8))
            terms = []
            n = 0
            check_every = 64
            while True:
                n += 1
                if n > rs.n_max:
                    est = self._estimate_needed(s, q, target)
                    raise InsufficientCoefficients(
                        est, f"AFE at s={s} needs roughly n_max >= {est}, have {rs.n_max}")
                if emb[n]:
                    x = mp.mpf(n) * scale
                    g = self.ladder.G(s, x)
                    terms.append(emb[n] * mp.mpf(n) ** (-s) * g)
                if n % check_every == 0 or n == rs.n_max:
                    tail = self._afe_tail_bound(s, q, n)
                    if tail < target:
                        return tree_sum(terms), tail
            # unreachable

    def _estimate_needed(self, s: int, q, target) -> int:
        n = 1024
        while n < 10 ** 8:
            if self._afe_tail_bound(s, q, n) < target:
                return n
            n *= 2
        return n

    # -- the two-sided AFE ---------------------------------------------------
    def _afe_pieces(self, s: int, delta_tag: str, delta):
        """(A, B) with Lambda(s) = A + eps * Q^alpha(s) * B at this delta."""
        key = (s, delta_tag)
        cached = self._pieces_cache
        if key in cached:
            return cached[key]
        shat = self.k + self.k2 - 1 - s
        if not (self.k <= s <= self.k2 - 1 and self.k <= shat <= self.k2 - 1):
            raise ExactError(f"AFE window is {self.k} <= s <= {self.k2 - 1}")
        A, tail_a = self._smoothed_sum(s, delta_tag, delta, conj=False, side_exponent=+1)
        B, tail_b = self._smoothed_sum(shat, delta_tag, delta, conj=True, side_exponent=-1)
        cached[key] = (A, B, tail_a + tail_b)
        return cached[key]

    def _alpha_pow(self, s: int):
        # Q^((k + k2 - 1)/2 - s)
        e2 = self.k + self.k2 - 1 - 2 * s  # twice the exponent
        return self.sqrtQ ** e2

    def solve_root_number(self) -> RootNumber:
        """Solve the AFE constant from two smoothing scales and two probes."""
        if self._root is not None:
            return self._root
        with mp.workdps(self.dps):
            deltas = {"d0": self.sqrtQ,
                      "d1": self.sqrtQ * mp.mpf(27) / 20,
                      "d2": self.sqrtQ * mp.mpf(16) / 21}
            s_lo = max(self.k, (self.k + self.k2 - 1) // 2 + 1)
            s_probe1 = self.k2 - 1
            s_probe2 = max(self.k2 - 2, s_lo)
            probes = [(s_probe1, "d0", "d1"), (s_probe2, "d0", "d2")]

            def solve_at(s0, ta, tb):
                A0, B0, _ = self._afe_pieces(s0, ta, deltas[ta])
                A1, B1, _ = self._afe_pieces(s0, tb, deltas[tb])
                dB = B0 - B1
                if abs(dB) == 0:
                    raise NormalizationError("degenerate smoothing-scale probe")
                return -(A0 - A1) / dB / self._alpha_pow(s0)

            e0 = solve_at(*probes[0])
            e1 = solve_at(*probes[1])
            residual = abs(e0 - e1)
            eps = e0
            s0 = probes[0][0]
            tol = mp.mpf(10) ** (-Fraction(self.P, 3))
            if abs(abs(eps) - 1) > tol:
                raise NormalizationError(
                    f"|eps| = {mpmath.nstr(abs(eps), 10)} is not 1 to 10^-P/3: "
                    "wrong conductor Q or normalization")
            if residual > tol:
                raise NormalizationError(
                    f"eps probes disagree by {mpmath.nstr(residual, 5)}")
            self._root = RootNumber(eps=eps, residual=residual, conductor=self.rs.Q)
        return self._root

    def is_self_dual(self) -> bool:
        """Coefficients fixed by conjugation, so Lambda-tilde = Lambda."""
        if self._self_dual is None:
            self._self_dual = all(c == c.conj() for c in self.rs.b[1:])
        return self._self_dual

    def central_point(self) -> int | None:
        tot = self.k + self.k2 - 1
        return tot // 2 if tot % 2 == 0 else None

    def certified_zero(self, s: int) -> bool:
        """True when Lambda(s) = 0 exactly: the self-dual functional equation
        with root number -1 forces the central value to vanish."""
        if s != self.central_point() or not self.is_self_dual():
            return False
        eps = self.solve_root_number().eps
        with mp.workdps(self.dps):
            return abs(eps + 1) < mp.mpf(10) ** (-Fraction(self.P, 3))

    def lambda_afe(self, s: int):
        root = self.solve_root_number()
        with mp.workdps(self.dps):
            A, B, tails = self._afe_pieces(s, "d0", self.sqrtQ)
            val = A + root.eps * self._alpha_pow(s) * B
            err = tails + abs(B) * root.residual * abs(self._alpha_pow(s))
            return val, err

    # -- direct summation -----------------------------------------------------
    def _direct_converges(self, s) -> bool:
        """The direct tail bound needs s - w/2 - 2 > 0."""
        return 2 * s > self.k + self.k2 + 2

    def _direct_tail_bound(self, s, N: int):
        """sum_{n>N} d4(n) n^(w/2 - s): exact sieve stretch + crude integral."""
        margin = s - Fraction(self.w, 2) - 2
        N2 = min(max(4 * N, 1 << 14), 1 << 18)
        d4 = d4_upto(N2)
        exact = tree_sum([mp.mpf(d4[n]) * mp.mpf(n) ** (Fraction(self.w, 2) - s)
                          for n in range(N + 1, N2 + 1)])
        beyond = 8 * mp.mpf(N2) ** (2 + Fraction(self.w, 2) - s) / float(margin)
        return exact + beyond

    def _direct_sum(self, s):
        """(finite part, certified absolute tail) by direct summation over
        the available coefficients, at whatever accuracy they certify."""
        if not self._direct_converges(s):
            raise ExactError(
                f"certified direct summation needs s > {(self.k + self.k2) / 2 + 1}")
        rs = self.rs
        with mp.workdps(self.dps):
            emb = self._embeddings(False)
            tail = self._direct_tail_bound(s, rs.n_max)
            val = tree_sum([emb[n] * mp.mpf(n) ** (-s)
                            for n in range(1, rs.n_max + 1) if emb[n]])
            return val, tail

    def direct_finite(self, s):
        """Finite part by direct summation, with certified absolute tail
        below 10^-P."""
        val, tail = self._direct_sum(s)
        with mp.workdps(self.dps):
            target = mp.mpf(10) ** (-self.P)
            if tail > target:
                # estimate the n_max that would be needed
                margin = float(s - Fraction(self.w, 2) - 2)
                need = 1 << 12
                while need < 1 << 40:
                    if 8 * mp.mpf(need) ** (2 + Fraction(self.w, 2) - s) / margin < target:
                        break
                    need <<= 1
                raise InsufficientCoefficients(
                    need, f"direct sum at s={s}, P={self.P} needs n_max ~ {need}; "
                    f"certified tail with n_max={self.rs.n_max} is {mpmath.nstr(tail, 3)}")
            return val, tail

    def direct_lambda(self, s):
        with mp.workdps(self.dps):
            fin, tail = self.direct_finite(s)
            linf = archimedean_factor(s, self.k, self.dps)
            return fin * linf, tail * abs(linf)

    # -- public entry ----------------------------------------------------------
    def L_at(self, s: int) -> LValueResult:
        """Completed Lambda(s) at an integer s, choosing the method."""
        with mp.workdps(self.dps):
            in_window = self.k <= s <= self.k2 - 1
            if self._direct_converges(s):
                try:
                    val, err = self.direct_lambda(s)
                    return LValueResult(s=s, value=val, err_bound=err, method="direct")
                except InsufficientCoefficients:
                    if not in_window:
                        raise
            if not in_window:
                raise ExactError(f"s = {s} outside critical window and not certifiable directly")
            val, err = self.lambda_afe(s)
            return LValueResult(s=s, value=val, err_bound=err, method="afe")


# ---------------------------------------------------------------------------
# module-level wrappers
# ---------------------------------------------------------------------------

def get_engine(rs: RankinSeries, P: int) -> LEngine:
    """The engine of `rs` at precision P, kept by the series itself."""
    eng = rs.engines.get(P)
    if eng is None:
        eng = rs.engines[P] = LEngine(rs, P)
    return eng


def L_at(rs: RankinSeries, s: int, P: int) -> LValueResult:
    return get_engine(rs, P).L_at(s)
