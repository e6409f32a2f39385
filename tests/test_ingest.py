from __future__ import annotations

import io
import json
import math
import random
import urllib.error
import urllib.request
from fractions import Fraction
from pathlib import Path

import pytest

from rscong.exactnum import AlgNum, QuadField
from rscong.forms import NewformData, char_from_kronecker, delta_family_qexp, trivial_char
from rscong.ingest import (FormatError, FormRecord, IntegrityError,
                           NetworkError, NotFound, SchemaError, canonical_bytes,
                           fetch_newform, load_fixture, newform_record,
                           parse_record, record_to_newform, save_fixture)

FIXTURES = Path(__file__).parent / "fixtures"


def minimal_obj(an=None):
    return {
        "label": "t.1", "level": 1, "weight": 12,
        "char": {"modulus": 1, "values": [[0, [1, 1, 0, 1]]]},
        "field_disc": 0,
        "an": an if an is not None else [[1, 1, 0, 1], [-24, 1, 0, 1]],
    }


class TestSchema:
    def test_fixture_loads(self):
        rec = load_fixture(FIXTURES / "3.13.b.a.json")
        assert rec.level == 3 and rec.weight == 13
        form = record_to_newform(rec)
        assert form.a(1) == 1

    def test_quadratic_field_normalized(self):
        rec = load_fixture(FIXTURES / "3.13.b.b.json")
        assert rec.field_disc == -8424
        assert rec.field() == QuadField(-26)

    def test_missing_field_pointer(self):
        obj = minimal_obj()
        del obj["weight"]
        with pytest.raises(SchemaError) as err:
            parse_record(obj)
        assert err.value.pointer == "/weight"

    def test_bad_quad_pointer(self):
        obj = minimal_obj(an=[[1, 1, 0, 1], [1, 1, 0]])
        with pytest.raises(SchemaError) as err:
            parse_record(obj)
        assert err.value.pointer == "/an/1"

    def test_zero_denominator(self):
        obj = minimal_obj(an=[[1, 0, 0, 1]])
        with pytest.raises(SchemaError):
            parse_record(obj)

    def test_a1_not_one(self):
        obj = minimal_obj(an=[[2, 1, 0, 1]])
        with pytest.raises(IntegrityError):
            record_to_newform(parse_record(obj))

    def test_multiplicativity_gate(self):
        d = delta_family_qexp(12, 40)
        rec = newform_record(d)
        bad = list(rec.coeffs)
        bad[5] = (999, 1, 0, 1)  # a(6) != a(2)a(3)
        with pytest.raises(IntegrityError):
            record_to_newform(FormRecord(**{**rec.__dict__, "coeffs": tuple(bad)}))

    def test_empty_coefficients(self):
        rec = parse_record(minimal_obj(an=[]))
        assert rec.n_max == 0
        assert record_to_newform(rec).n_max == 0


class TestRoundTrip:
    def test_save_load_byte_identical(self, tmp_path):
        rec = load_fixture(FIXTURES / "3.13.b.a.json")
        p1 = tmp_path / "a.json"
        save_fixture(rec, p1)
        rec2 = load_fixture(p1)
        p2 = tmp_path / "b.json"
        save_fixture(rec2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (FIXTURES / "3.13.b.a.json").read_bytes() == p1.read_bytes()

    def test_randomized_records(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randrange(0, 8)
            coeffs = tuple(
                (rng.randrange(-9, 10), rng.randrange(1, 5),
                 rng.randrange(-9, 10), rng.randrange(1, 5))
                for _ in range(n))
            rec = FormRecord(label=f"r{rng.randrange(999)}", level=rng.randrange(1, 20),
                             weight=rng.randrange(1, 30), char_modulus=1,
                             char_values=((0, (1, 1, 0, 1)),),
                             field_disc=-26, coeffs=coeffs)
            again = parse_record(json.loads(canonical_bytes(rec)))
            assert again == rec


class FlakyTransport:
    """Fails a set number of times, then returns the payload."""

    def __init__(self, payload, failures=0):
        self.payload = payload
        self.failures = failures
        self.calls = 0

    def __call__(self, url):
        self.calls += 1
        if self.calls <= self.failures:
            raise OSError("connection reset")
        if isinstance(self.payload, Exception):
            raise self.payload
        return self.payload


class TestFetch:
    def _payload(self):
        return canonical_bytes(newform_record(delta_family_qexp(12, 30)))

    def test_cache_hit_skips_network(self, tmp_path):
        tr = FlakyTransport(self._payload())
        rec1 = fetch_newform("1.12.a.a", 30, "http://db", directory=tmp_path,
                             transport=tr, sleep=lambda s: None)
        rec2 = fetch_newform("1.12.a.a", 30, "http://db", directory=tmp_path,
                             transport=tr, sleep=lambda s: None)
        assert tr.calls == 1 and rec1 == rec2

    def test_checksum_invalidation(self, tmp_path):
        tr = FlakyTransport(self._payload())
        fetch_newform("1.12.a.a", 30, "http://db", directory=tmp_path,
                      transport=tr, sleep=lambda s: None)
        victim = tmp_path / "1.12.a.a.30.json"
        data = victim.read_bytes().replace(b"-24", b"-25")
        assert data != victim.read_bytes()
        victim.write_bytes(data)
        fetch_newform("1.12.a.a", 30, "http://db", directory=tmp_path,
                      transport=tr, sleep=lambda s: None)
        assert tr.calls == 2  # mutated cache entry was refetched

    def test_not_found_propagates(self, tmp_path):
        tr = FlakyTransport(NotFound("nope"))
        with pytest.raises(NotFound):
            fetch_newform("x", 10, "http://db", directory=tmp_path,
                          transport=tr, sleep=lambda s: None)
        assert tr.calls == 1  # no retries on a definite miss

    def test_retries_then_network_error(self, tmp_path):
        tr = FlakyTransport(self._payload(), failures=5)
        sleeps = []
        with pytest.raises(NetworkError):
            fetch_newform("y", 10, "http://db", directory=tmp_path,
                          transport=tr, sleep=sleeps.append)
        assert tr.calls == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_retry_recovers(self, tmp_path):
        tr = FlakyTransport(self._payload(), failures=2)
        rec = fetch_newform("z", 30, "http://db", directory=tmp_path,
                            transport=tr, sleep=lambda s: None)
        assert rec.weight == 12 and tr.calls == 3

    def test_truncated_body_offset(self, tmp_path):
        body = self._payload()[:25]
        tr = FlakyTransport(body)
        with pytest.raises(FormatError) as err:
            fetch_newform("w", 10, "http://db", directory=tmp_path,
                          transport=tr, sleep=lambda s: None)
        assert err.value.offset >= 0

    def test_env_override(self, tmp_path, monkeypatch):
        from rscong.ingest import cache_dir

        monkeypatch.setenv("RANKIN_CACHE_DIR", str(tmp_path / "more"))
        assert cache_dir() == tmp_path / "more"


class FakeUrlopen:
    """Stands in for `urllib.request.urlopen`: answers every GET with one
    HTTP status and records the URLs and timeouts it was called with."""

    def __init__(self, status: int, body: bytes = b""):
        self.status = status
        self.body = body
        self.calls = []

    def __call__(self, url, timeout=None):
        self.calls.append((url, timeout))
        if self.status != 200:
            raise urllib.error.HTTPError(url, self.status, "error", {}, io.BytesIO())
        return io.BytesIO(self.body)


class TestDefaultTransport:
    def _fetch(self, tmp_path, monkeypatch, fake):
        monkeypatch.setattr(urllib.request, "urlopen", fake)
        return fetch_newform("1.12.a.a", 30, "http://db", directory=tmp_path,
                             sleep=lambda s: None)

    def test_ok_returns_body(self, tmp_path, monkeypatch):
        fake = FakeUrlopen(200, canonical_bytes(newform_record(delta_family_qexp(12, 30))))
        rec = self._fetch(tmp_path, monkeypatch, fake)
        assert rec.weight == 12
        assert fake.calls == [("http://db/1.12.a.a?n_max=30", 30)]

    def test_404_is_not_found(self, tmp_path, monkeypatch):
        fake = FakeUrlopen(404)
        with pytest.raises(NotFound):
            self._fetch(tmp_path, monkeypatch, fake)
        assert len(fake.calls) == 1

    def test_500_is_retried(self, tmp_path, monkeypatch):
        fake = FakeUrlopen(500)
        with pytest.raises(NetworkError, match="HTTP Error 500"):
            self._fetch(tmp_path, monkeypatch, fake)
        assert len(fake.calls) == 3
