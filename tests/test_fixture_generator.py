from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def test_generator_reproduces_committed_fixtures(tmp_path):
    # the offline generator, run short into a temporary directory, agrees with
    # the committed fixtures on the coefficients it writes
    subprocess.run([sys.executable, str(ROOT / "tools" / "gen_level3_fixtures.py"),
                    "--n-max", "200", "--out", str(tmp_path)],
                   check=True, capture_output=True, timeout=120)
    for name in ("3.13.b.a.json", "3.13.b.b.json"):
        written = json.loads((tmp_path / name).read_text())["an"]
        committed = json.loads((FIXTURES / name).read_text())["an"]
        assert len(written) == 200
        assert written == committed[:200]
