from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rscong.coset import (CosetClass, PadicMat, ReductionError, global_representatives,
                          gl2_in_k1_level, is_kostant, kostant_reps,
                          levi_projection_level, lift_levi_pair, reduce_unipotent,
                          unipotent, w6_identities_check, xi)


def membership_witness(u: PadicMat, j: int, level: int, rng: random.Random,
                       tries: int) -> PadicMat | None:
    """Independent double-coset oracle: search for an exact h in K_p^(level)
    with xi^(j) h u^(-1) in P(Q_p), certifying u in P xi^(j) K.

    The lower two rows of h are solved from the linear conditions; only the
    level congruences and the determinant are left to chance.  Any h found is
    an exact certificate; absence after many tries is probabilistic evidence.
    """
    p = u.p
    x, y = u[2, 0], u[2, 1]
    z, w = u[3, 0], u[3, 1]
    pj = Fraction(p) ** j
    pl = p ** level
    span = p ** (level + 2)
    uinv = u.inverse()
    for _ in range(tries):
        h2 = [rng.randrange(span) for _ in range(4)]
        h43 = pl * rng.randrange(p * p)
        h44 = 1 + pl * rng.randrange(p * p)
        h41 = -pj * h2[0] + x * (h43 + pj * h2[2]) + z * (h44 + pj * h2[3])
        h42 = -pj * h2[1] + y * (h43 + pj * h2[2]) + w * (h44 + pj * h2[3])
        # cheap congruence screen before building matrices
        if h41.denominator != 1 or h42.denominator != 1:
            continue
        if h41 % pl or h42 % pl:
            continue
        h33, h34 = rng.randrange(span), rng.randrange(span)
        h31 = x * h33 + z * h34
        h32 = y * h33 + w * h34
        h1 = [rng.randrange(span) for _ in range(4)]
        h = PadicMat.of([h1, h2, [h31, h32, h33, h34], [h41, h42, h43, h44]], p)
        if not h.in_mirahoric(level):
            continue
        tau = xi(j, p).mul(h).mul(uinv)
        if tau.in_parabolic():
            return h
    return None


def random_unipotent(p: int, level: int, rng: random.Random) -> PadicMat:
    span = p ** (level + 2)
    x = rng.randrange(-span, span)
    y = rng.randrange(-span, span)

    def small():
        r = rng.randrange(4)
        if r == 0:
            return 0
        return p ** rng.randrange(1, level + 2) * rng.choice(
            [u for u in range(1, p * p) if u % p] + [1])

    return unipotent(x, y, small() * rng.choice([1, -1]), small() * rng.choice([1, -1]), p)


def block_identities_sympy() -> bool:
    """The six printed 4x4 conjugation/splitting identities, verified
    symbolically in the entries (a, b, c, d)."""
    import sympy as sp

    a, b, c, d = sp.symbols("a b c d", nonzero=True)

    def M(rows):
        return sp.Matrix(rows)

    ident = []
    # conjugation by u(x3) t(x3) with x3 = c, then the splitting
    t3 = M([[1 / c, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, c]])
    u3 = M([[1, 0, 0, 1 / c], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    lhs = t3.inv() * u3.inv() * M([[1, 0, 0, 0], [0, 1, 0, 0],
                                   [a, b, 1, 0], [0, d, 0, 1]]) * u3 * t3
    rhs = M([[1, -d, 0, 0], [0, 1, 0, 0], [a / c, b, 1, a], [0, d / c, 0, 1]])
    ident.append(sp.simplify(lhs - rhs) == sp.zeros(4))
    split = M([[1, -d, 0, 0], [0, 1, 0, 0], [0, 0, 1, a], [0, 0, 0, 1]]) \
        * M([[1, 0, 0, 0], [0, 1, 0, 0], [a / c, b - a * d / c, 1, 0], [0, d / c, 0, 1]])
    ident.append(sp.simplify(rhs - split) == sp.zeros(4))
    # conjugation by u(x4) t(x4) with x4 = d
    t4 = M([[1, 0, 0, 0], [0, 1 / d, 0, 0], [0, 0, 1, 0], [0, 0, 0, d]])
    u4 = M([[1, 0, 0, 0], [0, 1, 0, 1 / d], [0, 0, 1, 0], [0, 0, 0, 1]])
    lhs = t4.inv() * u4.inv() * M([[1, 0, 0, 0], [0, 1, 0, 0],
                                   [a, b, 1, 0], [c, 0, 0, 1]]) * u4 * t4
    rhs = M([[1, 0, 0, 0], [-c, 1, 0, 0], [a, b / d, 1, b], [c / d, 0, 0, 1]])
    ident.append(sp.simplify(lhs - rhs) == sp.zeros(4))
    split = M([[1, 0, 0, 0], [-c, 1, 0, 0], [0, 0, 1, b], [0, 0, 0, 1]]) \
        * M([[1, 0, 0, 0], [0, 1, 0, 0], [a - b * c / d, b / d, 1, 0], [c / d, 0, 0, 1]])
    ident.append(sp.simplify(rhs - split) == sp.zeros(4))
    # conjugation by u(x1) t(x1) with x1 = a
    t1 = M([[1 / a, 0, 0, 0], [0, 1, 0, 0], [0, 0, a, 0], [0, 0, 0, 1]])
    u1 = M([[1, 0, 1 / a, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    lhs = t1.inv() * u1.inv() * M([[1, 0, 0, 0], [0, 1, 0, 0],
                                   [0, b, 1, 0], [c, d, 0, 1]]) * u1 * t1
    rhs = M([[1, -b, 0, 0], [0, 1, 0, 0], [0, b / a, 1, 0], [c / a, d, c, 1]])
    ident.append(sp.simplify(lhs - rhs) == sp.zeros(4))
    split = M([[1, -b, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, c, 1]]) \
        * M([[1, 0, 0, 0], [0, 1, 0, 0], [0, b / a, 1, 0],
             [c / a, -b * c / a + d, 0, 1]])
    ident.append(sp.simplify(rhs - split) == sp.zeros(4))
    return all(ident)


class TestKostant:
    def test_count_and_identity(self):
        reps = kostant_reps(3)
        assert len(reps) == 6
        assert reps[0].entries == tuple(tuple(Fraction(i == j) for j in range(4))
                                        for i in range(4))

    def test_condition_holds_for_all_six(self):
        assert all(is_kostant(w) for w in kostant_reps(2))

    def test_levi_transposition_fails(self):
        bad = PadicMat.of([[0, 1, 0, 0], [1, 0, 0, 0],
                           [0, 0, 1, 0], [0, 0, 0, 1]], 2)
        assert not is_kostant(bad)


class TestReduce:
    def test_already_reduced(self):
        p = 5
        for j in (1, 2, 3):
            u = unipotent(0, 0, 0, Fraction(p) ** j, p)
            cls = reduce_unipotent(u, 1, 2)
            assert cls.j == j and cls.verify(u)

    def test_identity_gives_trivial_class(self):
        u = unipotent(0, 0, 0, 0, 7)
        cls = reduce_unipotent(u, 1, 1)
        assert cls.j == 2 and cls.verify(u)

    def test_spec_example(self):
        u = unipotent(1, 5, 25, 5, 5)
        cls = reduce_unipotent(u, 1, 2)
        assert cls.j == 1 and cls.verify(u)

    def test_precondition_violation_reported(self):
        u = unipotent(0, 0, 1, 3, 3)
        with pytest.raises(ReductionError) as err:
            reduce_unipotent(u, 1, 1)
        assert "valuation" in str(err.value)

    def test_not_unipotent_rejected(self):
        m = PadicMat.of([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
        with pytest.raises(ReductionError):
            reduce_unipotent(m, 1, 1)

    @pytest.mark.parametrize("p,level", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_oracle_agreement(self, p, level):
        """Sampled unipotents: the reduction's class carries an exact witness,
        the independent oracle confirms it, and no other class admits one."""
        rng = random.Random(1000 * p + level)
        for _ in range(30):
            u = random_unipotent(p, level, rng)
            cls = reduce_unipotent(u, level, 0)
            assert cls.verify(u)
            assert membership_witness(u, cls.j, level, rng, 4000) is not None
            for j_other in range(0, level + 1):
                if j_other != cls.j:
                    assert membership_witness(u, j_other, level, rng, 250) is None


class TestLeviProjection:
    def test_endpoints(self):
        assert levi_projection_level(0, 1, 2) == (3, 0)
        assert levi_projection_level(3, 1, 2) == (0, 3)
        assert levi_projection_level(1, 1, 1) == (1, 1)

    def test_out_of_range(self):
        with pytest.raises(Exception):
            levi_projection_level(4, 1, 2)

    def test_sampled_projection_lands_in_levels(self):
        # p = 2, n' + n = 2, i = 1: conjugates xi k xi^(-1) in P project to
        # K(1) x K(1); elements built directly from the exact linear conditions
        p, i, level = 2, 1, 2
        rng = random.Random(17)
        x = xi(i, p)
        xinv = x.inverse()
        span = p ** (level + 3)
        found = 0
        attempts = 0
        while found < 2000 and attempts < 100000:
            attempts += 1
            k2 = [rng.randrange(span) for _ in range(4)]
            k1 = [rng.randrange(span) for _ in range(4)]
            k33, k34 = rng.randrange(span), rng.randrange(span)
            k24, k44p = k2[3], 1 + p ** level * rng.randrange(span)
            k21 = p * rng.randrange(span)  # forces v(k41) >= level
            k2[0] = k21
            k43 = p ** level * rng.randrange(span)
            # solve the parabolic conditions for the remaining entries
            k31 = Fraction(0)
            k32 = Fraction(p) ** i * k34
            k41 = -(Fraction(p) ** i) * k2[0]
            k42 = (Fraction(p) ** i) * (k44p + Fraction(p) ** i * k2[3]) \
                - (Fraction(p) ** i) * k2[1]
            k = PadicMat.of([k1, k2, [k31, k32, k33, k34], [k41, k42, k43, k44p]], p)
            if not k.in_mirahoric(level):
                continue
            g = x.mul(k).mul(xinv)
            if not g.in_parabolic():
                continue
            found += 1
            A, D = g.levi_blocks()
            assert gl2_in_k1_level(A, p, level - i)
            assert gl2_in_k1_level(D, p, i)
        assert found >= 2000

    def test_generators_lift_back(self):
        # generators of K(1) x K(1) lift to the stabilizer of xi^(1) at level 2
        p, i, level = 2, 1, 2
        gens = [
            ((1, 1), (0, 1)), ((1, 0), (2, 1)), ((3, 0), (0, 1)), ((1, 0), (0, 3)),
        ]
        for A in gens:
            for D in gens:
                g = lift_levi_pair(A, D, i, 1, 1, p)
                assert g is not None, (A, D)


class TestGlobal:
    def test_level_pair_1_3(self):
        reps = global_representatives(1, 3)
        assert len(reps) == 2
        levels = sorted(r["levels"] for r in reps)
        assert levels == [(1, 3), (3, 1)]
        assert any(r["is_xi_N"] for r in reps) and any(r["is_xi_N2"] for r in reps)

    def test_trivial(self):
        reps = global_representatives(1, 1)
        assert len(reps) == 1 and reps[0]["levels"] == (1, 1)

    def test_count_formula(self):
        reps = global_representatives(6, 35)
        assert len(reps) == 2 ** 4  # N N' = 210, four primes, n'_p + n_p = 1 each


class TestIdentities:
    def test_all_printed_identities(self):
        out = w6_identities_check(5)
        assert all(out.values())
        assert block_identities_sympy()
