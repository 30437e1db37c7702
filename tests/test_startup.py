"""Start-up cost: importing circumlab loads numpy but no scipy, and so do
the triangle, interp and mesh commands, none of which calls scipy.  Each
case runs in a fresh interpreter, since this test process has scipy
loaded already."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# prints the scipy modules loaded after ``body`` as the last line of stderr
SCRIPT = """\
import json, sys
{body}
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded), file=sys.stderr)
"""


def run_fresh(body: str, cwd: Path) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SCRIPT.format(body=body)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.strip().splitlines()[-1])


def run_command(argv: list[str], cwd: Path) -> list[str]:
    """Run ``main(argv)``, which must exit 0; the scipy modules loaded."""
    body = ("from circumlab.cli import main\n"
            f"code = main({argv!r})\n"
            "assert code == 0, code")
    return run_fresh(body, cwd)


@pytest.mark.parametrize("module", ["circumlab", "circumlab.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    loaded = run_fresh(f"import {module}\nassert 'numpy' in sys.modules", tmp_path)
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["triangle", "0,0", "1,0", "0.3,0.9"],
    ["interp", "0,0", "1,0", "0.3,0.9"],
    ["interp", "--needle-study", "1.5", "--levels", "2"],
    ["mesh", "--family", "lens", "--n", "4"],
], ids=["triangle", "interp", "interp-needle-study", "mesh"])
def test_command_loads_no_scipy(argv, tmp_path):
    loaded = run_command(argv, tmp_path)
    assert loaded == []


def test_mesh_check_loads_no_scipy(tmp_path):
    run_command(["mesh", "--family", "lens", "--n", "4", "--out", "out"], tmp_path)
    assert (tmp_path / "out" / "mesh_lens_4.txt").is_file()
    loaded = run_command(["mesh", "--check", "out/mesh_lens_4.txt"], tmp_path)
    assert loaded == []


@pytest.mark.parametrize("argv,module", [
    (["fem", "--levels", "1", "--n0", "2"], "scipy.sparse.linalg"),
    (["constants", "--kind", "D", "--degree", "4", "0,0", "1,0", "0,1"], "scipy.linalg"),
], ids=["fem", "constants"])
def test_fem_and_quotients_load_scipy_on_first_use(argv, module, tmp_path):
    loaded = run_command(argv, tmp_path)
    assert module in loaded
