"""Eigenform congruence detection mod a prime ideal, and excluded prime sets.

The congruence check compares q-expansions up to a Sturm-type bound; the
Eisenstein screen looks for a congruence with the built-in sigma-type
Eisenstein series, which would make the mod-l Galois representation
reducible and void the irreducibility hypothesis of the ratio theorems.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import ExactError, NotIntegral, PrimeIdeal, compositum, valuation
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
    for p in {q for q in primes_upto(N) if N % q == 0}:
        mu = mu // p * (p + 1)
    return mu


def sturm_bound(k: int, N: int) -> int:
    """ceil(k * [SL2(Z):Gamma_0(N)] / 12); comparing q-expansion coefficients
    up to this index suffices for forms of one weight, level and character."""
    if k < 1 or N < 1:
        raise ExactError("weight and level must be positive")
    return -(-k * gamma0_index(N) // 12)


def check_congruent(h1: NewformData, h2: NewformData, P: PrimeIdeal,
                    n_extra: int = 0) -> CongruenceReport:
    """a(n,h1) = a(n,h2) (mod P) for n up to max(Sturm bound, n_extra)."""
    if (h1.weight, h1.level) != (h2.weight, h2.level):
        raise ExactError("forms must share weight and level")
    bound = max(sturm_bound(h1.weight, h1.level), n_extra)
    bound = min(bound, h1.n_max, h2.n_max)
    first_failure = None
    for n in range(1, bound + 1):
        d = h1.a(n).promote(P.field) - h2.a(n).promote(P.field)
        for side in (h1.a(n), h2.a(n)):
            v = valuation(side.promote(P.field), P)
            if v < 0:
                raise NotIntegral(int(v))
        if valuation(d, P) < 1:
            first_failure = n
            break
    return CongruenceReport(
        forms=(h1.label, h2.label), prime=P, bound_used=bound,
        congruent=first_failure is None, first_failure=first_failure,
    )


def eisenstein_screen(h: NewformData, P: PrimeIdeal) -> str | None:
    """Label of a sigma-type Eisenstein series congruent to h mod P; None
    when the screen is clear; "unchecked: <reason>" when no series of the
    family exists for h's weight and character to compare with.

    Comparison runs over 1 <= n <= Sturm bound + 1 (one spare index since the
    constant terms are not compared).  A hit means the mod-P representation
    is reducible-suspect, and an unchecked screen is not a clear one.
    """
    try:
        bound = sturm_bound(h.weight, h.level) + 1
        E = eisenstein_qexp(h.weight, h.char, min(bound, h.n_max))
    except ExactError as exc:
        return f"unchecked: {exc}"
    F = compositum(compositum(h.field, P.field), E.field)
    for n in range(1, min(bound, h.n_max) + 1):
        d = h.a(n).promote(F) - E.a(n).promote(F)
        if valuation(d, P) < 1:
            return None
    return E.label


def excluded_primes(k: int, k2: int, N: int, N2: int) -> dict[str, list[int]]:
    """The computable excluded prime sets: small-weight primes and level primes."""
    if min(k, k2, N, N2) < 1:
        raise ExactError("weights and levels must be positive")
    bound = max(k, k2)
    s_weight = primes_upto(bound)
    s_level = sorted({p for p in primes_upto(N * N2) if (N * N2) % p == 0})
    return {"S_weight": s_weight, "S_level": s_level}
