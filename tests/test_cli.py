from __future__ import annotations

import json
from pathlib import Path

import pytest

from rscong.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"


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
        "coset-reduce": {"--json-out"},
        "local-constant": {"--json-out"},
    }
    with pytest.raises(SystemExit):
        main(["coset-reduce", "--p", "5", "--level-pair", "1,1", "--entries", "0,0,0,5",
              "--precision", "30"])


class TestCosetCli:
    def test_trivial_example_echoes_class(self, capsys, tmp_path):
        out_path = tmp_path / "c.json"
        code, _ = run(capsys, "coset-reduce", "--p", "5", "--level-pair", "1,2",
                      "--entries", "0,0,0,25", "--json-out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["class_j"] == 2 and doc["verified"]

    def test_bad_entries(self, capsys):
        code, _ = run(capsys, "coset-reduce", "--p", "5", "--level-pair", "1,1",
                      "--entries", "1,2,3")
        assert code == 1


class TestLocalCli:
    def test_exact_fraction_printed(self, capsys):
        code, out = run(capsys, "local-constant", "--p", "3", "--steinberg", "27",
                        "--ps-trace", "-48", "--ps-det", str(3 ** 24),
                        "--weights", "13,26")
        assert code == 0
        doc = json.loads(out)
        num, den = doc["c_p"][0], doc["c_p"][1]
        from fractions import Fraction

        from rscong.exactnum import AlgNum
        from rscong.localint import HalfPower, SteinbergTwist, UnramifiedPS, local_constant

        st = SteinbergTwist(3, AlgNum.rational(27))
        ps = UnramifiedPS(3, HalfPower(3, AlgNum.rational(-48), -1),
                          AlgNum.rational(Fraction(3) ** 24), 26)
        assert Fraction(num, den) == local_constant(st, ps, 3).as_rat()


    def test_composite_p_exit_1(self, capsys):
        code = main(["local-constant", "--p", "4", "--steinberg", "27", "--ps-trace", "-48",
                     "--ps-det", str(3 ** 24), "--weights", "13,26"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "--p 4 is not prime" in err


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

    @pytest.mark.parametrize("precision", ["0", "-5"])
    def test_precision_below_one_exit_1(self, capsys, precision):
        code = main(["lvalue", "--pair", "delta:12:100,delta:16:100", "--s", "40",
                     "--precision", precision])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert f"precision P = {precision}" in err


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

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fixtures": str(FIXTURES)}))
        code, out = run(capsys, "--config", str(cfg), "congruent",
                        "--form1", "3.13.b.a", "--form2", "3.13.b.b",
                        "--prime", "13")
        assert code == 0 and json.loads(out)["congruent"]
