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
code = harmtomo.cli.main(["validate", sys.argv[1]])
print(json.dumps({"exit": code, "scipy": sorted(m for m in sys.modules
                                               if m == "scipy" or m.startswith("scipy."))}))
"""


def test_package_and_validate_import_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", PROBE, str(ROOT / "scenarios" / "qr_sweep.json")],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"exit": 0, "scipy": []}
