"""The package needs numpy alone: importing it loads no scipy, and it runs with scipy blocked.

Each check runs in a fresh interpreter, because this test session has
imported scipy for the reference comparisons elsewhere.
"""
import os
import subprocess
import sys
from pathlib import Path

import hrrkit

SRC = str(Path(hrrkit.__file__).resolve().parent.parent)


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_loads_no_scipy():
    proc = run_python(
        "import sys\n"
        "import hrrkit, hrrkit.cli, hrrkit.evaluate, hrrkit.pipeline, hrrkit.radar, hrrkit.io\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert 'scipy' not in sys.modules, loaded\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_synth_and_estimate_with_scipy_blocked(tmp_path):
    proc = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from hrrkit.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['synth', '-o', out + '/trace.csv', '--snr-db', '15']) == 0\n"
        "assert main(['estimate', out + '/trace.csv', '-o', out + '/est', '--dump-modes']) == 0\n",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "est" / "hr.csv").is_file()
    assert (tmp_path / "est" / "modes.csv").is_file()
