"""The package's public name list, and what importing and using it loads."""

import os
import subprocess
import sys

import pytest

import ergopulse

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ergopulse.__file__)))


def test_all_names_resolve_once():
    names = ergopulse.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(ergopulse, name) is not None, name
    namespace = {}
    exec("from ergopulse import *", namespace)
    assert set(names) <= set(namespace)


def _fresh(code, tmp_path):
    """Run code in a fresh interpreter that imports ergopulse from SRC, in
    tmp_path; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli(args):
    return f"assert main({args.split() + ['--out', 'o']!r}) == 0"


# scipy takes longer to import than these calls take to run; none of them
# needs it
NO_SCIPY_CALLS = {
    "import": "pass",
    "optimize tv": _cli("optimize --mode tv --n 4"),
    "optimize bound": _cli("optimize --mode bound --system qubit-z-x --n 3"),
    "probe": _cli("probe --family uhrig --nmax 64"),
    "schedule": _cli("schedule --kind uhrig --n 9"),
    "cesaro_mean": (
        "ergopulse.cesaro_mean(ergopulse.random_unitary(4, seed=1), np.eye(4), 999)"
    ),
}


@pytest.mark.parametrize("call", sorted(NO_SCIPY_CALLS))
def test_import_and_scipy_free_paths_load_no_scipy(tmp_path, call):
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import ergopulse, ergopulse.cli\n"
        "from ergopulse.cli import main\n"
        f"{NO_SCIPY_CALLS[call]}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh(code, tmp_path).splitlines()[-1] == "[]"


@pytest.mark.parametrize("form", ["expm(m)", "expm(m, [1.0, 0.1])[0]"])
def test_expm_past_the_taylor_radius_imports_scipy_on_first_use(tmp_path, form):
    # ||m||_1 = 3 > 1 sends m to scipy.linalg.expm in either form
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from ergopulse.matrixcore import expm\n"
        "m = np.array([[0.5, 2.0], [-1.0, 1j]])\n"
        "assert 'scipy' not in sys.modules\n"
        f"got = {form}\n"
        "assert 'scipy.linalg' in sys.modules\n"
        "import scipy.linalg\n"
        "print(np.array_equal(got, scipy.linalg.expm(m)))\n"
    )
    assert _fresh(code, tmp_path).strip() == "True"
