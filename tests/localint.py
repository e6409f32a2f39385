"""Exact local computation at a ramified prime: local representation data
and the local intertwining constant.

The local constant c'_p for a twisted-Steinberg times unramified principal
series pair is the product of two geometric-series factors of the shape
(1 - p^(-1) X)/(1 - p^(-2) X).  Expanded in the symmetric functions of the
Satake data every exposed quantity lands back in the coefficient field E:
half powers of p are carried on a formal sqrt(p) whose exponent must come
out even (`HalfPower.fold`), which is an exactness invariant rather than a
rounding concern.

The intertwining integral itself is never numerically integrated.  The
tests certify its branch structure with the membership predicates of the
coset module, check the product of the two geometric factors against the
symmetric-function form, and check the result against the ratio of the local
Euler factor (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from rscong.exactnum import AlgNum, ExactError


class ConvergenceViolation(ExactError):
    pass


class HalfPowerParity(ExactError):
    pass


@dataclass(frozen=True)
class HalfPower:
    """alg * sqrt(p)^half, with alg in a quadratic field and half an integer."""

    p: int
    alg: AlgNum
    half: int = 0

    @staticmethod
    def of(p: int, value, half: int = 0) -> "HalfPower":
        if isinstance(value, HalfPower):
            return value
        if not isinstance(value, AlgNum):
            value = AlgNum.rational(Fraction(value))
        return HalfPower(p, value, half)

    def __mul__(self, other):
        other = HalfPower.of(self.p, other)
        return HalfPower(self.p, self.alg * other.alg, self.half + other.half)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = HalfPower.of(self.p, other)
        return HalfPower(self.p, self.alg / other.alg, self.half - other.half)

    def __add__(self, other):
        other = HalfPower.of(self.p, other)
        if not self.alg:
            return other
        if not other.alg:
            return self
        if self.half != other.half:
            # fold integral powers of p across when parity matches
            if (self.half - other.half) % 2 == 0:
                shift = (self.half - other.half) // 2
                alg = self.alg * (Fraction(self.p) ** shift) + other.alg
                return HalfPower(self.p, alg, other.half)
            raise HalfPowerParity("cannot add values with odd sqrt(p)-offset")
        return HalfPower(self.p, self.alg + other.alg, self.half)

    def __bool__(self):
        return bool(self.alg)

    def fold(self) -> AlgNum:
        """Collapse to an honest field element; requires an even exponent."""
        if not self.alg:
            return self.alg
        if self.half % 2:
            raise HalfPowerParity(f"odd sqrt({self.p}) exponent {self.half}")
        return self.alg * (Fraction(self.p) ** (self.half // 2))

    def __repr__(self):
        return f"{self.alg}*sqrt({self.p})^{self.half}"


# ---------------------------------------------------------------------------
# local representation data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteinbergTwist:
    """Twist of the special representation at p; the twisting value at p is
    the Hecke eigenvalue of the form ramified at p."""

    p: int
    chi_p_at_p: AlgNum
    n_p: int = 1


@dataclass(frozen=True)
class UnramifiedPS:
    """Unramified principal series attached to the form f unramified at p,
    in the conjugate (rho) parametrization.

    trace carries chi'_1(p) + chi'_2(p) = a(p, f^rho) * sqrt(p)^(-1) and
    det carries chi'_1(p) chi'_2(p) = chi_f^(-1)(p) p^(K-2) for K the weight
    of f; both as exact data, the half power symbolic.
    """

    p: int
    trace: HalfPower
    det: AlgNum
    weight: int
    n_p: int = 0


# ---------------------------------------------------------------------------
# the local constant
# ---------------------------------------------------------------------------

#: sqrt(p)-exponent of the evaluation twist applied to each Satake value when
#: forming the geometric-factor arguments; fixed by the exact match with the
#: ratio of the local Euler factor at successive integers.
EVAL_TWIST_HALF = 3


def local_constant(st: SteinbergTwist, ps: UnramifiedPS, p: int) -> AlgNum:
    """c'_p as the product of the two geometric factors, expanded in the
    symmetric functions of the Satake data so the result lies in E.

    Equals the ratio of the inverse local Euler factor of the pair at the
    successive arguments (K-2, K-1), K the unramified side's weight; the
    acceptance suite asserts that identity exactly against the Euler-factor
    oracle of the tests.
    """
    if st.p != p or ps.p != p:
        raise ExactError("prime mismatch")
    a = HalfPower.of(p, st.chi_p_at_p)
    twist = HalfPower(p, AlgNum.rational(1), EVAL_TWIST_HALF)
    det_hp = HalfPower.of(p, ps.det)
    # symmetric functions of X_i = (a / gamma_i) * sqrt(p)^twist
    S = (a * ps.trace / det_hp * twist).fold()
    Qs = (a * a / det_hp * twist * twist).fold()
    pinv = Fraction(1, p)
    num = AlgNum.rational(1) - pinv * S + pinv ** 2 * Qs
    den = AlgNum.rational(1) - pinv ** 2 * S + pinv ** 4 * Qs
    if not den:
        raise ConvergenceViolation("local constant denominator vanishes")
    return num / den
