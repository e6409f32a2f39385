from __future__ import annotations

from pathlib import Path

import pytest

from rscong.forms import delta_family_qexp
from rscong.ingest import load_fixture
from rscong.rankin import rs_coefficients

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def h_prime():
    return load_fixture(FIXTURES / "3.13.b.a.json")


@pytest.fixture(scope="session")
def h_dprime():
    return load_fixture(FIXTURES / "3.13.b.b.json")


@pytest.fixture(scope="session")
def h_aux26():
    return delta_family_qexp(26, 6000)


@pytest.fixture(scope="session")
def rs_74_prime(h_prime, h_aux26):
    return rs_coefficients(h_prime, h_aux26, 6000)


@pytest.fixture(scope="session")
def rs_74_dprime(h_dprime, h_aux26):
    return rs_coefficients(h_dprime, h_aux26, 6000)


@pytest.fixture(scope="session")
def rs_small():
    """Conductor-1 pair: cheap engine runs for the numeric unit tests."""
    d12 = delta_family_qexp(12, 500)
    f16 = delta_family_qexp(16, 500)
    return rs_coefficients(d12, f16, 500)
