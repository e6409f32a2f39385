"""Command-line entry point.

Subcommands: fetch, congruent, lvalue, verify.
Form references are fixture paths, bare labels resolved against --fixtures,
or builtin generator specs "delta:<weight>[:<n_max>]" for the level-1 family.

Exit codes for `verify`: 0 when every theorem-covered verdict is Congruent
(or merely informational), 2 on a NotCongruent verdict inside the theorem
hypotheses, 3 on an Indeterminate one, 1 on input or validation errors.
Hypothesis violations never abort a run; they annotate the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from functools import reduce
from pathlib import Path

from . import __version__
from .congruence import check_congruent, eisenstein_screen
from .exactnum import ExactError, PrimeIdeal, compositum, factor_rational_prime
from .forms import NewformData, delta_family_qexp
from .ingest import NotFound, fetch_newform, load_fixture, save_fixture
from .lvalue import L_at
from .rankin import rs_coefficients
from .ratio import INDETERMINATE, NOT_CONGRUENT, full_report, report_text

DEFAULT_PRECISION = 120
DEFAULT_NMAX = 6000


#: the flags several subcommands share; a --config file sets their defaults
SHARED_FLAGS = {
    "--precision": {"type": int, "default": DEFAULT_PRECISION},
    "--fixtures": {"help": "directory for bare-label form references"},
    "--cache-dir": {},
    "--json-out": {},
    "--n-max": {"type": int, "default": DEFAULT_NMAX},
}


class CliError(Exception):
    pass


def resolve_form(ref: str, fixtures_dir: str | None, n_max: int) -> tuple[NewformData, str | None]:
    """Returns (form, fixture_path_or_None)."""
    if ref.startswith("delta:"):
        parts = ref.split(":")[1:]
        if len(parts) > 2 or not all(x.isdecimal() for x in parts):
            raise CliError(f"bad form reference {ref!r}: expected delta:<weight>[:<n_max>]")
        nm = int(parts[1]) if len(parts) > 1 else n_max
        if nm < 1:
            raise CliError(f"bad form reference {ref!r}: n_max = {nm}, at least 1 is needed")
        return delta_family_qexp(int(parts[0]), nm), None
    path = Path(ref)
    if not path.exists() and fixtures_dir:
        cand = Path(fixtures_dir) / f"{ref}.json"
        if cand.exists():
            path = cand
    if not path.exists():
        raise CliError(f"cannot resolve form reference {ref!r}")
    return load_fixture(path), str(path)


def _prime_above(l: int, *forms: NewformData) -> PrimeIdeal:
    """The first prime ideal above l in the compositum of the forms' fields."""
    return factor_rational_prime(l, reduce(compositum, (f.field for f in forms)))[0]


def _manifest(args_ns, checksums: dict, wall: float) -> dict:
    return {
        "command": args_ns.cmd,
        "arguments": {k: v for k, v in sorted(vars(args_ns).items())
                      if k not in ("cmd", "func") and v is not None},
        "precision": getattr(args_ns, "precision", None),
        "fixture_checksums": checksums,
        "code_version": __version__,
        "wall_time_s": round(wall, 3),
    }


def _checksum(path: str | None) -> str | None:
    if path is None:
        return None
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(obj: dict, json_out: str | None):
    text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    if json_out:
        Path(json_out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fetch(args) -> int:
    rec = fetch_newform(args.label, args.n_max, args.base_url,
                        directory=Path(args.cache_dir) if args.cache_dir else None)
    if args.out:
        save_fixture(rec, args.out)
    _emit({"label": rec.label, "level": rec.level, "weight": rec.weight,
           "n_max": rec.n_max, "field_disc": rec.field_disc}, args.json_out)
    return 0


def cmd_congruent(args) -> int:
    f1, _ = resolve_form(args.form1, args.fixtures, args.n_max)
    f2, _ = resolve_form(args.form2, args.fixtures, args.n_max)
    P = _prime_above(args.prime, f1, f2)
    rep = check_congruent(f1, f2, P, n_extra=args.n_extra)
    rep = replace(rep, eisenstein_alarm=eisenstein_screen(f1, P))
    _emit(rep.to_json_obj(), args.json_out)
    return 0


def cmd_lvalue(args) -> int:
    refs = args.pair.split(",")
    if len(refs) != 2:
        raise CliError("--pair takes two comma-separated form references")
    f1, _ = resolve_form(refs[0], args.fixtures, args.n_max)
    f2, _ = resolve_form(refs[1], args.fixtures, args.n_max)
    rs = rs_coefficients(f1, f2, min(f1.n_max, f2.n_max))
    res = L_at(rs, args.s, args.precision)
    import mpmath

    _emit({
        "schema": "rscong-lvalue/v1",
        "s": res.s,
        "value_re": mpmath.nstr(res.value.real, args.precision),
        "value_im": mpmath.nstr(res.value.imag, args.precision),
        "err_bound": mpmath.nstr(res.err_bound, 5),
        "method": res.method,
    }, args.json_out)
    return 0


def _values(flag: str, text: str, want: str) -> list[int]:
    """The comma-separated integers of `flag`; a CliError naming the flag if
    they are not."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} takes {want}, got {text!r}") from None


def cmd_verify(args) -> int:
    t0 = time.time()
    # the left endpoints m of the pairs to check; None checks all
    ms = _values("--m-list", args.m_list, "comma-separated integers") if args.m_list else None
    aux, p_aux = resolve_form(args.aux, args.fixtures, args.n_max)
    f1, p1 = resolve_form(args.form1, args.fixtures, args.n_max)
    f2, p2 = resolve_form(args.form2, args.fixtures, args.n_max)
    P = _prime_above(args.prime, aux, f1, f2)
    report = full_report(aux, f1, f2, P, P=args.precision, ms=ms)
    verdicts = report.pop("_verdicts")
    checksums = {ref: _checksum(pth) for ref, pth in
                 ((args.aux, p_aux), (args.form1, p1), (args.form2, p2)) if pth}
    text = report_text(report)
    sys.stdout.write(text + "\n")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        manifest = _manifest(args, checksums, time.time() - t0)
        Path(args.json_out).with_suffix(".manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    covered = [v.verdict for v in verdicts if not v.informational]
    if NOT_CONGRUENT in covered:
        return 2
    if INDETERMINATE in covered:
        return 3
    return 0


# ---------------------------------------------------------------------------

def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The parser; `defaults` maps shared flags to the defaults a --config
    file gives them, so a flag on the command line still wins."""
    defaults = defaults or {}
    ap = argparse.ArgumentParser(prog="rscong", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", help="JSON file whose keys mirror the flags")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(sp, *flags):
        """Add the shared flags this subcommand reads."""
        for flag in flags:
            spec = dict(SHARED_FLAGS[flag])
            if flag in defaults:
                spec["default"] = defaults[flag]
            sp.add_argument(flag, **spec)

    sp = sub.add_parser("fetch", help="fetch a newform record into the cache")
    sp.add_argument("--label", required=True)
    sp.add_argument("--base-url", required=True)
    sp.add_argument("--out", help="also save as a fixture file")
    common(sp, "--cache-dir", "--json-out", "--n-max")
    sp.set_defaults(func=cmd_fetch)

    sp = sub.add_parser("congruent", help="coefficientwise congruence mod a prime")
    sp.add_argument("--form1", required=True)
    sp.add_argument("--form2", required=True)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--n-extra", type=int, default=0)
    common(sp, "--fixtures", "--json-out", "--n-max")
    sp.set_defaults(func=cmd_congruent)

    sp = sub.add_parser("lvalue", help="completed L-value at an integer point")
    sp.add_argument("--pair", required=True, help="two form references, comma separated")
    sp.add_argument("--s", type=int, required=True)
    common(sp, "--precision", "--fixtures", "--json-out", "--n-max")
    sp.set_defaults(func=cmd_lvalue)

    sp = sub.add_parser("verify", help="full ratio-congruence verification report")
    sp.add_argument("--form1", required=True, help="first congruent form")
    sp.add_argument("--form2", required=True, help="second congruent form")
    sp.add_argument("--aux", required=True, help="auxiliary form")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--m-list", help="restrict to these left endpoints m")
    common(sp, "--precision", "--fixtures", "--json-out", "--n-max")
    sp.set_defaults(func=cmd_verify)
    return ap


def _config_value(key: str, val, flag: dict):
    """A --config value read as the flag reads the command line, by its
    argparse type, from a JSON string or integer; a CliError naming the key
    if that fails."""
    kind = flag.get("type", str)
    try:
        if isinstance(val, bool) or not isinstance(val, (str, int)):
            raise ValueError
        return kind(str(val))
    except ValueError:
        raise CliError(f"config key {key!r}: expected {kind.__name__}, got {val!r}") from None


def _config_defaults(path: str) -> dict:
    """Shared flag -> default, from a --config file of a JSON object whose
    keys name shared flags (n-max or n_max); a CliError names any other key."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise CliError("config file must hold a JSON object")
    defaults = {}
    for key, val in cfg.items():
        flag = "--" + key.replace("_", "-")
        if flag not in SHARED_FLAGS:
            raise CliError(f"config key {key!r} is not one of the shared flags: "
                           + ", ".join(f[2:] for f in SHARED_FLAGS))
        defaults[flag] = _config_value(key, val, SHARED_FLAGS[flag])
    return defaults


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_config_defaults(args.config)).parse_args(argv)
        for key, val in vars(args).items():
            if val == []:  # argparse of some Python versions reads the value "--" as []
                setattr(args, key, "--")
        return args.func(args)
    except (CliError, ExactError, NotFound, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
