"""Acquisition of q-expansion data: fixture files, HTTP client, disk cache.

Fixture schema (JSON)::

    {
      "label": str,
      "level": int,
      "weight": int,
      "char": {"modulus": int, "values": [[residue, [a_num, a_den, b_num, b_den]], ...]},
      "field_disc": int,        # 0 or 1 for Q; otherwise any radicand d with
                                # E = Q(sqrt(d)); pairs below refer to sqrt(d0)
                                # for d0 the squarefree kernel of field_disc
      "an": [[a_num, a_den, b_num, b_den], ...]   # a(1), a(2), ... in order
    }

All acceptance tests run from committed fixtures; the network client exists
for refreshing them and is never needed offline.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .exactnum import AlgNum, QuadField, RATIONAL, quad_normalize
from .forms import DirichletChar, NewformData, coordinates, quad

CACHE_ENV = "RANKIN_CACHE_DIR"
#: GETs per fetch before a NetworkError, with backoff 0.5 s, 1 s, ... between them
FETCH_ATTEMPTS = 3


class SchemaError(ValueError):
    """Fixture JSON does not match the schema; carries a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class IntegrityError(ValueError):
    """Fixture parsed but violates newform invariants."""


class FormatError(ValueError):
    """Response body is not parseable JSON; carries a byte offset."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"{message} (offset {offset})")


class NotFound(LookupError):
    pass


class NetworkError(OSError):
    pass


@dataclass(frozen=True)
class FormRecord:
    label: str
    level: int
    weight: int
    char_modulus: int
    char_values: tuple  # ((residue, (a_num, a_den, b_num, b_den)), ...)
    field_disc: int
    coeffs: tuple  # ((a_num, a_den, b_num, b_den), ...) for a(1..n_max)

    @property
    def n_max(self) -> int:
        return len(self.coeffs)

    def field(self) -> QuadField:
        if self.field_disc in (0, 1):
            return RATIONAL
        return QuadField(quad_normalize(self.field_disc)[0])

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "level": self.level,
            "weight": self.weight,
            "char": {
                "modulus": self.char_modulus,
                "values": [[r, list(v)] for r, v in self.char_values],
            },
            "field_disc": self.field_disc,
            "an": [list(c) for c in self.coeffs],
        }


def _expect(cond: bool, pointer: str, message: str):
    if not cond:
        raise SchemaError(pointer, message)


def _parse_quad(val, pointer: str) -> tuple[int, int, int, int]:
    _expect(isinstance(val, list) and len(val) == 4, pointer,
            "expected [a_num, a_den, b_num, b_den]")
    for i, x in enumerate(val):
        _expect(type(x) is int, f"{pointer}/{i}", "expected integer")
    _expect(val[1] != 0 and val[3] != 0, pointer, "zero denominator")
    return tuple(val)


def parse_record(obj: dict) -> FormRecord:
    _expect(isinstance(obj, dict), "", "expected a JSON object")
    for key in ("label", "level", "weight", "char", "field_disc", "an"):
        _expect(key in obj, f"/{key}", "missing field")
    _expect(isinstance(obj["label"], str), "/label", "expected string")
    # JSON true and false load as bool, a subclass of int: integers are
    # checked by exact type
    for key in ("level", "weight"):
        _expect(type(obj[key]) is int and obj[key] >= 1, f"/{key}", "expected positive integer")
    _expect(type(obj["field_disc"]) is int, "/field_disc", "expected integer")
    char = obj["char"]
    _expect(isinstance(char, dict), "/char", "expected object")
    _expect(type(char.get("modulus")) is int and char["modulus"] >= 1,
            "/char/modulus", "expected positive integer")
    _expect(isinstance(char.get("values"), list), "/char/values", "expected list")
    values = []
    for i, item in enumerate(char["values"]):
        _expect(isinstance(item, list) and len(item) == 2, f"/char/values/{i}",
                "expected [residue, value]")
        r, v = item
        _expect(type(r) is int, f"/char/values/{i}/0", "expected integer residue")
        values.append((r, _parse_quad(v, f"/char/values/{i}/1")))
    an = obj["an"]
    _expect(isinstance(an, list), "/an", "expected list")
    # `_parse_quad`'s checks on the whole list at once; it runs per entry
    # only to name the first entry that fails them
    if not all(isinstance(v, list) and len(v) == 4 and type(v[0]) is int
               and type(v[1]) is int and type(v[2]) is int and type(v[3]) is int
               and v[1] != 0 and v[3] != 0 for v in an):
        for i, v in enumerate(an):
            _parse_quad(v, f"/an/{i}")
    coeffs = tuple(map(tuple, an))
    return FormRecord(
        label=obj["label"], level=obj["level"], weight=obj["weight"],
        char_modulus=char["modulus"], char_values=tuple(values),
        field_disc=obj["field_disc"], coeffs=coeffs,
    )


def record_to_newform(rec: FormRecord) -> NewformData:
    """The newform of a record, checked, else IntegrityError: one character
    value per unit residue mod N (residue 0 for N = 1), chi(ab) = chi(a)
    chi(b) for every pair of unit residues, so chi(1) = 1 and every value is
    a root of unity, chi(-1) = (-1)^weight, a(1) = 1 and Hecke
    multiplicativity on 20 sampled coprime pairs.  The coefficients go from
    the quads to integer coordinates directly."""
    F = rec.field()
    N = rec.char_modulus
    units = [r for r in range(N) if math.gcd(r, N) == 1] if N > 1 else [0]
    if sorted(r for r, _ in rec.char_values) != units:
        raise IntegrityError(f"{rec.label}: the character table needs one value for each "
                             f"unit residue mod {N}, {units}")
    vals = [AlgNum.rational(0)] * N
    for r, (an, ad, bn, bd) in rec.char_values:
        if F.is_rational and bn:
            raise IntegrityError(f"{rec.label}: irrational coefficient in a rational field")
        vals[r] = AlgNum(F, Fraction(an, ad), Fraction(bn, bd))
    char = DirichletChar(N, tuple(vals))
    bad = next(((a, b) for a in units for b in units if char(a * b) != char(a) * char(b)), None)
    if bad:
        raise IntegrityError(f"{rec.label}: the character table is not a character: "
                             f"chi({bad[0]} * {bad[1]}) != chi({bad[0]}) chi({bad[1]}) mod {N}")
    if char(-1) != (-1) ** rec.weight:
        raise IntegrityError(f"{rec.label}: chi(-1) = {char(-1)}, but weight {rec.weight} "
                             f"needs chi(-1) = {(-1) ** rec.weight}")
    x, y, D = coordinates(rec.coeffs)
    try:
        form = NewformData(level=rec.level, weight=rec.weight, char=char,
                           x=(0, *x), y=(0, *y), D=D, field=F, label=rec.label)
    except ValueError as exc:
        raise IntegrityError(str(exc)) from exc
    rng = random.Random(20240617)
    pairs = []
    while len(pairs) < 20 and form.n_max >= 6:
        m = rng.randrange(2, max(3, form.n_max // 3))
        n = rng.randrange(2, max(3, form.n_max // m + 1))
        if m * n <= form.n_max and math.gcd(m, n) == 1:
            pairs.append((m, n))
    if not form.check_hecke_multiplicativity(pairs):
        raise IntegrityError(f"{rec.label}: Hecke multiplicativity fails")
    return form


# ---------------------------------------------------------------------------
# canonical (de)serialization
# ---------------------------------------------------------------------------

def canonical_bytes(rec: FormRecord) -> bytes:
    return (json.dumps(rec.to_json_obj(), sort_keys=True, indent=1) + "\n").encode()


def _checked_record(raw: bytes) -> tuple[FormRecord, NewformData]:
    """The record JSON `raw` holds and its newform, checked by
    `record_to_newform`, the integrity gate."""
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(exc.pos, exc.msg) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(exc.start, f"not {exc.encoding}: {exc.reason}") from exc
    rec = parse_record(obj)
    return rec, record_to_newform(rec)


def load_fixture(path: str | Path) -> NewformData:
    """The checked newform of a fixture file."""
    return _checked_record(Path(path).read_bytes())[1]


def save_fixture(rec: FormRecord, path: str | Path) -> None:
    Path(path).write_bytes(canonical_bytes(rec))


# ---------------------------------------------------------------------------
# HTTP client with content-addressed cache
# ---------------------------------------------------------------------------

def _default_transport(url: str) -> bytes:
    """GET `url`; a 404 raises NotFound, any other failure raises as is."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.read()
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise NotFound(url) from exc
        raise


def cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV, Path.home() / ".cache" / "rscong"))


def _cache_paths(directory: Path, label: str, n_max: int) -> tuple[Path, Path]:
    stem = f"{label.replace('/', '_')}.{n_max}"
    return directory / f"{stem}.json", directory / f"{stem}.meta.json"


def fetch_newform(label: str, n_max: int, base_url: str,
                  directory: Path | None = None,
                  transport: Callable[[str], bytes] | None = None,
                  sleep: Callable[[float], None] = time.sleep) -> FormRecord:
    """Fetch a newform record, serving repeated calls from the disk cache.

    Cache entries are content-addressed: the payload checksum is stored in a
    sidecar and re-verified on every hit, so a corrupted file falls through
    to a refetch, as does a sidecar that is not a JSON object with the
    payload's sha256.  The errors of a bad body start with `GET <url>: `.
    """
    directory = Path(directory) if directory is not None else cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    data_path, meta_path = _cache_paths(directory, label, n_max)
    if data_path.exists() and meta_path.exists():
        payload = data_path.read_bytes()
        try:
            meta = json.loads(meta_path.read_bytes())
        except ValueError:  # not JSON, or not text
            meta = None
        if isinstance(meta, dict) and meta.get("sha256") == hashlib.sha256(payload).hexdigest():
            return parse_record(json.loads(payload))
        # a corrupt sidecar or a checksum mismatch: treat as absent
    transport = transport or _default_transport
    url = f"{base_url.rstrip('/')}/{label}?n_max={n_max}"
    last_exc: Exception | None = None
    for attempt in range(FETCH_ATTEMPTS):
        try:
            body = transport(url)
            break
        except NotFound as exc:
            raise NotFound(f"GET {url}: not found") from exc
        except Exception as exc:  # noqa: BLE001 - network layer boundary
            last_exc = exc
            if attempt + 1 < FETCH_ATTEMPTS:
                sleep(0.5 * 2 ** attempt)
    else:
        raise NetworkError(f"GET {url} failed after {FETCH_ATTEMPTS} attempts: {last_exc}")
    try:
        rec = _checked_record(body)[0]
    except (FormatError, SchemaError, IntegrityError) as exc:
        exc.args = (f"GET {url}: {exc}",)
        raise
    payload = canonical_bytes(rec)
    meta = {
        "sha256": hashlib.sha256(payload).hexdigest(),
        "source_url": url,
        "retrieved_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _atomic_write(data_path, payload)
    _atomic_write(meta_path, (json.dumps(meta, sort_keys=True) + "\n").encode())
    return rec


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def newform_record(form: NewformData, label: str | None = None,
                   field_disc: int | None = None) -> FormRecord:
    """Serialize a NewformData back into a FormRecord."""
    F = form.field
    disc = field_disc if field_disc is not None else (0 if F.is_rational else F.d0)
    char_values = tuple(
        (r, quad(form.char(r)))
        for r in range(max(form.char.modulus, 1))
        if form.char.modulus == 1 or math.gcd(r, form.char.modulus) == 1
    )
    return FormRecord(
        label=label or form.label, level=form.level, weight=form.weight,
        char_modulus=form.char.modulus, char_values=char_values,
        field_disc=disc, coeffs=tuple(quad(form.a(n)) for n in range(1, form.n_max + 1)),
    )
