from __future__ import annotations

import functools
import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscong import cli, ingest, ratio
from rscong.cli import build_parser, main
from rscong.forms import delta_family_qexp
from rscong.ingest import canonical_bytes, newform_record
from rscong.ratio import INDETERMINATE, NOT_CONGRUENT

FIXTURES = Path(__file__).parent / "fixtures"
#: `verify --aux delta:16:1200 --precision 30` on the level-3 fixtures, as written
GOLDEN_P30 = Path(__file__).parent / "golden" / "report_aux16_p30.json"
README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_subcommands_take_only_the_shared_flags_they_read():
    shared = {"--precision", "--fixtures", "--cache-dir", "--json-out", "--n-max"}
    sub = next(a for a in build_parser()._actions if a.choices)
    taken = {name: shared & {opt for act in sp._actions for opt in act.option_strings}
             for name, sp in sub.choices.items()}
    assert taken == {
        "fetch": {"--cache-dir", "--json-out", "--n-max"},
        "congruent": {"--fixtures", "--json-out", "--n-max"},
        "lvalue": {"--precision", "--fixtures", "--json-out", "--n-max"},
        "verify": {"--precision", "--fixtures", "--json-out", "--n-max"},
    }
    with pytest.raises(SystemExit):
        main(["congruent", "--form1", "delta:16:3", "--form2", "delta:16:3", "--prime", "7",
              "--precision", "30"])


def readme_cli_examples() -> list[list[str]]:
    """The argv of each `rscong` command in README's `## CLI` sh block, its
    backslash continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rscong ")]


def test_readme_cli_examples_parse():
    # parsing only: a README example naming a removed subcommand or flag fails
    examples = readme_cli_examples()
    assert examples
    for argv in examples:
        build_parser().parse_args(argv)


PRIME = st.one_of(st.sampled_from([2, 3, 5, 7]), st.integers(-5, 40))


def assert_exit_0_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error:")
        assert out.getvalue() == ""


#: level-1 forms cut to 1-3 coefficients, the committed fixtures, and
#: references that do not resolve
FORM_REF = st.one_of(
    st.builds("delta:{}:{}".format, st.sampled_from([12, 16, 22, 26]), st.integers(1, 3)),
    st.sampled_from(["delta:16", "delta:26", "3.13.b.a", "3.13.b.b"]),
    st.sampled_from(["delta:13:2", "delta:16:0", "delta:x", "nope"]))
#: `--n-max` 1 to 3 keeps every run, fixtures included, to milliseconds
TINY_FLAGS = st.builds(lambda n, p: [f"--n-max={n}", f"--precision={p}", f"--fixtures={FIXTURES}"],
                       st.integers(1, 3), st.integers(-1, 40))
PAIR_ARGV = st.builds(
    lambda f1, f2, s, flags: ["lvalue", f"--pair={f1},{f2}", f"--s={s}"] + flags,
    FORM_REF, FORM_REF, st.integers(-2, 60), TINY_FLAGS)
CONGRUENT_ARGV = st.builds(
    lambda f1, f2, p, flags: ["congruent", f"--form1={f1}", f"--form2={f2}", f"--prime={p}",
                              flags[0], flags[2]],
    FORM_REF, FORM_REF, PRIME, TINY_FLAGS)
VERIFY_ARGV = st.builds(
    lambda f1, f2, aux, p, flags: ["verify", f"--form1={f1}", f"--form2={f2}", f"--aux={aux}",
                                   f"--prime={p}"] + flags,
    FORM_REF, FORM_REF, FORM_REF, PRIME, TINY_FLAGS)


@settings(max_examples=150, deadline=None)
@given(st.one_of(PAIR_ARGV, CONGRUENT_ARGV, VERIFY_ARGV))
def test_form_subcommands_at_tiny_n_max_fail_only_with_an_error_line(argv):
    # `fetch` is left out: it would reach the network
    assert_exit_0_or_one_error_line(argv)


class TestCongruentCli:
    def test_74_pair_json(self, capsys, tmp_path):
        out_path = tmp_path / "c.json"
        code, _ = run(capsys, "congruent",
                      "--form1", str(FIXTURES / "3.13.b.a.json"),
                      "--form2", str(FIXTURES / "3.13.b.b.json"),
                      "--prime", "13", "--n-extra", "30",
                      "--json-out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["congruent"] and doc["prime"]["kind"] == "ramified"

    def test_label_resolution_via_fixtures_flag(self, capsys):
        code, out = run(capsys, "congruent", "--form1", "3.13.b.a",
                        "--form2", "3.13.b.b", "--prime", "13",
                        "--fixtures", str(FIXTURES))
        assert code == 0 and json.loads(out)["congruent"]

    def test_missing_fixture_exit_1(self, capsys):
        code, _ = run(capsys, "congruent", "--form1", "nope.json",
                      "--form2", "also-nope.json", "--prime", "13")
        assert code == 1

    def test_below_sturm_bound_exit_1(self, capsys):
        # one coefficient, and the Sturm bound of weight 16 at level 1 is 2
        code = main(["congruent", "--form1", "delta:16:1", "--form2", "delta:16:1",
                     "--prime", "7"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: 1.16.a: n_max = 1 is below the bound 2 the "
                                    "comparison mod 7 needs"]


class TestLvalueCli:
    def test_direct_method_at_convergent_point(self, capsys):
        code, out = run(capsys, "lvalue", "--pair", "delta:12:300,delta:16:300",
                        "--s", "40", "--precision", "25")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "direct"
        assert float(doc["value_re"]) != 0.0

    def test_unsupported_delta_weight_exit_1(self, capsys):
        code = main(["lvalue", "--pair", "delta:14,delta:16", "--s", "20"])
        err = capsys.readouterr().err
        assert code == 1
        assert "weight 14" in err

    @pytest.mark.parametrize("ref", ["delta:12:x", "delta:x", "delta:", "delta:12:100:5",
                                     "delta:12:-5"])
    def test_malformed_delta_reference_is_named(self, capsys, ref):
        code = main(["lvalue", "--pair", f"{ref},delta:16:100", "--s", "40"])
        err = capsys.readouterr().err
        assert code == 1
        assert repr(ref) in err and "delta:<weight>[:<n_max>]" in err

    @pytest.mark.parametrize("ref", ["delta:12:0", "delta:12:00"])
    def test_delta_n_max_below_one_is_named(self, capsys, ref):
        code = main(["lvalue", "--pair", f"{ref},delta:16:100", "--s", "40"])
        err = capsys.readouterr().err
        assert code == 1
        assert repr(ref) in err and "n_max = 0" in err

    def test_double_dash_value_is_a_string(self, capsys):
        # argparse of some Python versions reads the value "--" as []
        code = main(["lvalue", "--pair=--", "--s", "40"])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err.startswith("error: --pair")

    @pytest.mark.parametrize("precision", ["0", "-5"])
    def test_precision_below_one_exit_1(self, capsys, precision):
        code = main(["lvalue", "--pair", "delta:12:100,delta:16:100", "--s", "40",
                     "--precision", precision])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert f"precision P = {precision}" in err


class TestFetchCli:
    """`rscong fetch` through `main`, its transport a fake: no network."""

    BASE = "http://db"
    URL = "http://db/1.12.a.a?n_max=30"

    @pytest.fixture
    def fake(self, monkeypatch):
        """Serves `fake.body` (an exception is raised) and records the URLs;
        backoff sleeps are recorded, not slept."""
        fake = SimpleNamespace(body=canonical_bytes(newform_record(delta_family_qexp(12, 30))),
                               urls=[], sleeps=[])

        def transport(url):
            fake.urls.append(url)
            if isinstance(fake.body, Exception):
                raise fake.body
            return fake.body

        monkeypatch.setattr(ingest, "_default_transport", transport)
        # the default `sleep` is bound when `fetch_newform` is defined
        monkeypatch.setattr(cli, "fetch_newform",
                            functools.partial(ingest.fetch_newform, sleep=fake.sleeps.append))
        return fake

    def fetch(self, tmp_path, *extra):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["fetch", "--label", "1.12.a.a", "--base-url", self.BASE, "--n-max", "30",
                         "--cache-dir", str(tmp_path / "cache"), *extra])
        return code, out.getvalue(), err.getvalue()

    def test_writes_fixture_and_summary_then_hits_the_cache(self, fake, tmp_path):
        out_path, json_path = tmp_path / "f.json", tmp_path / "summary.json"
        code, out, err = self.fetch(tmp_path, "--out", str(out_path), "--json-out", str(json_path))
        assert (code, out, err) == (0, "", "")
        assert out_path.read_bytes() == fake.body
        assert json.loads(json_path.read_text()) == {
            "label": "1.12.a", "level": 1, "weight": 12, "n_max": 30, "field_disc": 0}
        code, out, _ = self.fetch(tmp_path)
        assert code == 0 and json.loads(out)["weight"] == 12
        assert fake.urls == [self.URL]  # the second call never reached the transport

    @pytest.mark.parametrize("case", ["not found", "network", "not json"])
    def test_failure_is_one_error_line(self, fake, tmp_path, case):
        fake.body = {"not found": ingest.NotFound(self.URL), "network": OSError("reset"),
                     "not json": b"<html>"}[case]
        code, out, err = self.fetch(tmp_path)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        if case != "not json":
            assert self.URL in err
        assert len(fake.urls) == (3 if case == "network" else 1)
        assert fake.sleeps == ([0.5, 1.0] if case == "network" else [])

    @pytest.mark.parametrize("body", [b"<html>", b'{"level": 1}', b"\x80\x81 not utf-8"])
    def test_bad_body_names_its_url(self, fake, tmp_path, body):
        fake.body = body
        code, out, err = self.fetch(tmp_path)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: GET {self.URL}: ")


class TestVerifyCli:
    def test_identical_forms_all_congruent_exit_0(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "verify", "--form1", "delta:16:400",
                        "--form2", "delta:16:400", "--aux", "delta:26:400",
                        "--prime", "23", "--precision", "40",
                        "--m-list", "24", "--json-out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["pairs"][0]["verdict"] == "Congruent"
        assert not doc["pairs"][0]["informational"]
        assert doc["hypothesis_violations"] == []
        manifest = json.loads(out_path.with_suffix(".manifest.json").read_text())
        assert manifest["command"] == "verify" and manifest["precision"] == 40

    def test_precision_below_one_exit_1(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(["verify", "--form1", "delta:16:100", "--form2", "delta:16:100",
                     "--aux", "delta:26:100", "--prime", "23", "--precision", "0",
                     "--m-list", "24", "--json-out", str(out_path)])
        assert code == 1
        assert "precision P = 0" in capsys.readouterr().err
        assert not out_path.exists()

    def test_m_list_not_integers_exit_1(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(["verify", "--form1", "delta:16:100", "--form2", "delta:16:100",
                     "--aux", "delta:26:100", "--prime", "23", "--precision", "10",
                     "--m-list", "24,x", "--json-out", str(out_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "--m-list" in err and "comma-separated integers" in err and "'24,x'" in err
        assert not out_path.exists()

    def test_m_list_selecting_no_pair_exit_1(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(["verify", "--form1", "delta:16:100", "--form2", "delta:16:100",
                     "--aux", "delta:26:100", "--prime", "23", "--precision", "10",
                     "--m-list", "99", "--json-out", str(out_path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "m in [99] selects no critical pair" in err and "16..24" in err
        assert not out_path.exists()

    def test_pair_below_sturm_bound_exit_1(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(["verify", "--form1", "delta:16:1", "--form2", "delta:16:1",
                     "--aux", "delta:26:100", "--prime", "23", "--precision", "10",
                     "--m-list", "24", "--json-out", str(out_path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: 1.16.a: n_max = 1 is below the bound 2 the "
                                    "comparison mod 23 needs"]
        assert not out_path.exists()

    def test_report_bytes_deterministic(self, capsys, tmp_path):
        paths = []
        for name in ("r1.json", "r2.json"):
            out_path = tmp_path / name
            code, _ = run(capsys, "verify", "--form1", "delta:16:400",
                          "--form2", "delta:16:400", "--aux", "delta:26:400",
                          "--prime", "23", "--precision", "40",
                          "--m-list", "24", "--json-out", str(out_path))
            assert code == 0
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("verdict, code", [(NOT_CONGRUENT, 2), (INDETERMINATE, 3)])
    def test_covered_verdict_sets_the_exit_code(self, capsys, tmp_path, monkeypatch,
                                                verdict, code):
        # the identical-forms run, its one covered verdict replaced
        def report_with(*args, **kwargs):
            report = ratio.full_report(*args, **kwargs)
            report["_verdicts"] = [replace(v, verdict=verdict) for v in report["_verdicts"]]
            return report

        monkeypatch.setattr(cli, "full_report", report_with)
        out_path = tmp_path / "report.json"
        got, _ = run(capsys, "verify", "--form1", "delta:16:400",
                     "--form2", "delta:16:400", "--aux", "delta:26:400",
                     "--prime", "23", "--precision", "40",
                     "--m-list", "24", "--json-out", str(out_path))
        assert got == code
        doc = json.loads(out_path.read_text())
        assert "_verdicts" not in doc and not doc["pairs"][0]["informational"]

    def test_report_bytes_match_the_p30_golden(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _ = run(capsys, "verify", "--fixtures", str(FIXTURES),
                      "--form1", "3.13.b.a", "--form2", "3.13.b.b",
                      "--aux", "delta:16:1200", "--prime", "13", "--precision", "30",
                      "--n-max", "1200", "--json-out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == GOLDEN_P30.read_bytes()

    @pytest.mark.parametrize("cfg", [{"precision": "x"}, {"n-max": 1.5}])
    def test_config_value_is_read_by_the_flag_type(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["--config", str(path), "lvalue", "--pair", "delta:12:3,delta:16",
                     "--s", "40"])
        out, err = capsys.readouterr()
        (key, val), = cfg.items()
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: config key {key!r}: expected int, got {val!r}"]

    def test_flag_on_the_command_line_beats_config(self, capsys, tmp_path):
        # --precision 120 equals the default, and still wins over the file's 10
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"precision": 10}))
        code = main(["--config", str(path), "lvalue", "--pair", "delta:12:300,delta:16:300",
                     "--s", "40", "--precision", "120"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "P=120 needs n_max" in err

    def test_unknown_config_key_exit_1(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"precison": "x", "n-max": 30}))
        code = main(["--config", str(path), "lvalue", "--pair", "delta:12,delta:16",
                     "--s", "40", "--precision", "10"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: config key 'precison' is not one of the shared "
                                    "flags: precision, fixtures, cache-dir, json-out, n-max"]

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fixtures": str(FIXTURES)}))
        code, out = run(capsys, "--config", str(cfg), "congruent",
                        "--form1", "3.13.b.a", "--form2", "3.13.b.b",
                        "--prime", "13")
        assert code == 0 and json.loads(out)["congruent"]
