"""Eigenform congruence detection mod a prime ideal, and excluded prime sets.

Both checks run one comparison, `first_difference`, which refuses a bound
beyond either form's coefficients: the congruence check to at least the
Sturm bound, the Eisenstein screen against the E_k(chi) of h's weight and
character, whose congruence would make the mod-l Galois representation
reducible and void the irreducibility hypothesis of the ratio theorems.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import ExactError, NotIntegral, PrimeIdeal, _factor_trial, valuation
from .forms import NewformData, eisenstein_qexp, primes_upto


@dataclass(frozen=True)
class CongruenceReport:
    forms: tuple[str, str]
    prime: PrimeIdeal
    bound_used: int
    congruent: bool
    first_failure: int | None = None
    eisenstein_alarm: str | None = None

    def to_json_obj(self) -> dict:
        return {
            "forms": list(self.forms),
            "prime": {"l": self.prime.l, "kind": self.prime.kind,
                      "field_d0": self.prime.field.d0},
            "bound_used": self.bound_used,
            "congruent": self.congruent,
            "first_failure": self.first_failure,
            "eisenstein_alarm": self.eisenstein_alarm,
        }


def gamma0_index(N: int) -> int:
    mu = N
    for p in _factor_trial(N):
        mu = mu // p * (p + 1)
    return mu


def sturm_bound(k: int, N: int) -> int:
    """ceil(k * [SL2(Z):Gamma_0(N)] / 12); comparing q-expansion coefficients
    up to this index suffices for forms of one weight, level and character."""
    if k < 1 or N < 1:
        raise ExactError("weight and level must be positive")
    return -(-k * gamma0_index(N) // 12)


def first_difference(f: NewformData, g: NewformData, P: PrimeIdeal, bound: int) -> int | None:
    """The least n <= bound with a(n,f) != a(n,g) (mod P), None if there is
    none.  ExactError if either form has fewer than `bound` coefficients,
    NotIntegral if a coefficient compared is not P-integral."""
    for h in (f, g):
        if h.n_max < bound:
            raise ExactError(f"{h.label or 'form'}: n_max = {h.n_max} is below the bound "
                             f"{bound} the comparison mod {P.l} needs")
    for n in range(1, bound + 1):
        a, b = f.a(n), g.a(n)
        v = min(valuation(a, P), valuation(b, P))
        if v < 0:
            raise NotIntegral(int(v))
        if valuation(a - b, P) < 1:
            return n
    return None


def check_congruent(h1: NewformData, h2: NewformData, P: PrimeIdeal,
                    n_extra: int = 0) -> CongruenceReport:
    """a(n,h1) = a(n,h2) (mod P) for n up to max(Sturm bound, n_extra):
    n_extra counts only as far as both forms reach, the Sturm bound always,
    so a form with fewer coefficients than it raises ExactError."""
    if (h1.weight, h1.level) != (h2.weight, h2.level):
        raise ExactError("forms must share weight and level")
    bound = max(sturm_bound(h1.weight, h1.level), min(n_extra, h1.n_max, h2.n_max))
    n = first_difference(h1, h2, P, bound)
    return CongruenceReport(forms=(h1.label, h2.label), prime=P, bound_used=bound,
                            congruent=n is None, first_failure=n)


def eisenstein_screen(h: NewformData, P: PrimeIdeal) -> str | None:
    """Label of the E_k(chi) of h's weight and character when it is
    congruent to h mod P over 1 <= n <= Sturm bound + 1 (the constant terms
    are not compared); None when the screen is clear; "unchecked: <reason>"
    when no such series exists or the comparison cannot run.  A hit means the
    mod-P representation is reducible-suspect, and an unchecked screen is
    not a clear one."""
    try:
        bound = sturm_bound(h.weight, h.level) + 1
        E = eisenstein_qexp(h.weight, h.char, bound)
        return None if first_difference(h, E, P, bound) else E.label
    except ExactError as exc:
        return f"unchecked: {exc}"


def excluded_primes(k: int, k2: int, N: int, N2: int) -> dict[str, list[int]]:
    """The computable excluded prime sets: small-weight primes and the
    primes dividing either level."""
    if min(k, k2, N, N2) < 1:
        raise ExactError("weights and levels must be positive")
    bound = max(k, k2)
    s_weight = primes_upto(bound)
    s_level = sorted(_factor_trial(N).keys() | _factor_trial(N2).keys())
    return {"S_weight": s_weight, "S_level": s_level}
