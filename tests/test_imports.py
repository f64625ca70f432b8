"""The package runs on numpy alone: scipy is a test dependency only.

Each `harmtomo` command is a fresh process, so everything the package imports
is paid on every call; scipy's import tree would add most of the start-up time
and about 40 MiB of memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
import harmtomo, harmtomo.cli, harmtomo.runner, harmtomo.scenarios
code = harmtomo.cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "scipy": sorted(m for m in sys.modules
                                               if m == "scipy" or m.startswith("scipy."))}))
"""


def probe(*argv):
    """Exit code and the scipy modules imported by one `harmtomo` command run
    in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", PROBE, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_and_validate_import_no_scipy():
    assert probe("validate", ROOT / "scenarios" / "qr_sweep.json") == {"exit": 0, "scipy": []}


def test_run_imports_no_scipy(tmp_path):
    # a run builds a basis, whose Robin wavenumbers are solved in the package
    raw = json.loads((ROOT / "scenarios" / "smoothing_study.json").read_text())
    raw["preset"] = "basis-report"
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert probe("run", path, "--out", out) == {"exit": 0, "scipy": []}
    assert (out / "basis.csv").is_file()
