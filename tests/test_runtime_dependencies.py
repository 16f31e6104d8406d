"""The runtime package needs numpy alone: every command runs without SciPy."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"

# a fresh interpreter in which any import of scipy fails, so a command that
# reaches for it exits with the ImportError instead of passing
_NO_SCIPY = '''
import json, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is not a runtime dependency: import of {name}")
        return None


sys.meta_path.insert(0, BlockScipy())
from oscontrol.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy_modules": loaded}))
'''


def test_commands_run_without_scipy(tmp_path):
    out = str(tmp_path / "report.json")
    runs = [
        ["rank", "--model", str(MODELS / "chain_n3.json")],
        ["chain", "--n", "3"],
        ["williamson", "--model", str(MODELS / "chain_n3.json")],
        ["recur", "--model", str(MODELS / "incommensurate_pair.json"), "--epsilon", "0.5",
         "--after", "10"],
        ["evolve", "--model", str(MODELS / "single_mode.json"),
         "--schedule", str(MODELS / "schedule_demo.json")],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, json.dumps([argv + ["--out", out] for argv in runs])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0, 0], "scipy_modules": []}
