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


# a seeded non-normal coboundary system X = Y - u Y u* and a row; its
# limit factor is e^(P(X) t), with P(X) zero up to rounding
COBOUNDARY = (
    "rng = np.random.default_rng(3)\n"
    "u = ergopulse.random_unitary(3, min_phase_gap=0.1, seed=3)\n"
    "y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))\n"
    "x = y - u @ y @ u.conj().T\n"
    "assert ergopulse.op_norm(x @ x.conj().T - x.conj().T @ x) > 0.1\n"
    "s = ergopulse.PulseSystem(u, x, 0.7)\n"
    "row = ergopulse.uhrig_family()(8)\n"
)

# a seeded system file whose ||P(X) t||_1 = 2.2 > 1, so expm(P(X) t)
# squares its Taylor sum; from N = 16 on, every factor e^(a X t) of the
# rows takes the Taylor side too
SQUARING_SYSTEM = (
    "import json\n"
    "from ergopulse.matrixcore import matrix_to_json_dict\n"
    "u = ergopulse.random_unitary(3, min_phase_gap=0.3, seed=5)\n"
    "g = np.random.default_rng(5).standard_normal((3, 3))\n"
    "system = {'u': matrix_to_json_dict(u), 'generator': matrix_to_json_dict(g)}\n"
    "open('system.json', 'w').write(json.dumps(system))\n"
    "fixed = ergopulse.PulseSystem(u, g, 1.0).fixed_part\n"
    "scale = float(2.2 / np.abs(fixed).sum(axis=0).max())\n"
    "argv = 'sweep --system system.json --family uniform --n 16,32,64 --out o'\n"
    "assert main(argv.split() + ['--t', repr(scale)]) == 0\n"
)

# scipy takes longer to import than these calls take to run; none of them
# needs it
NO_SCIPY_CALLS = {
    "import": "pass",
    "optimize tv": _cli("optimize --mode tv --n 4"),
    "optimize bound": _cli("optimize --mode bound --system qubit-z-x --n 3"),
    "probe": _cli("probe --family uhrig --nmax 64"),
    "schedule": _cli("schedule --family uhrig --n 9"),
    "cesaro_mean": (
        "ergopulse.cesaro_mean(ergopulse.random_unitary(4, seed=1), np.eye(4), 999)"
    ),
    "expm(m)": "ergopulse.expm(np.array([[0.5, 2.0], [-1.0, 1j]]))",
    # ||m||_1 = 3: one slice on each side of the Taylor radius
    "expm(m, scalars) mixed": (
        "ergopulse.expm(np.array([[0.5, 2.0], [-1.0, 1j]]), [1.0, 0.1])"
    ),
    "sweep squaring": SQUARING_SYSTEM,
    "limit_evolution": COBOUNDARY + "ergopulse.limit_evolution(s, 8)",
    "control_error": COBOUNDARY + "ergopulse.control_error(s, row)",
    "schedule_bound_rhs": COBOUNDARY + "ergopulse.schedule_bound_rhs(s, row)",
    "equidistant_bound_constants": (
        COBOUNDARY + "ergopulse.equidistant_bound_constants(s)"
    ),
}
for _family in ("uniform", "uhrig", "pathological"):
    NO_SCIPY_CALLS[f"sweep {_family}"] = _cli(
        f"sweep --system qubit-z-x --family {_family} --n 16:4096:geometric"
    )


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


def test_importing_the_cli_builds_no_parser(tmp_path):
    # main builds the parser on its first call, so an import (perfbench's
    # set-up among them) pays nothing for it
    code = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    made.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import ergopulse.cli\n"
        "print(len(made), ergopulse.cli._parser.cache_info().currsize)\n"
    )
    assert _fresh(code, tmp_path) == "0 0\n"


# every public function and the four CLI subcommands, with any import of
# scipy made to fail; the system's factors e^(a X t) and its generator's
# multiples below reach past the Taylor radius
SCIPY_BLOCKED = (
    "import inspect, sys\n"
    "sys.modules['scipy'] = None\n"
    "import numpy as np\n"
    "import ergopulse\n"
    "from ergopulse.cli import main\n"
    "done = set()\n"
    "def call(name, *args):\n"
    "    done.add(name)\n"
    "    return getattr(ergopulse, name)(*args)\n"
    + COBOUNDARY
    + "s = ergopulse.PulseSystem(u, x, 4.0)\n"
    "assert 4.0 * np.abs(x).sum(axis=0).max() / 8 > 1\n"
    "call('random_unitary', 2, 0.1, 7)\n"
    "call('as_operator', x)\n"
    "call('op_norm', x)\n"
    "call('is_unitary', u)\n"
    "call('exp_product_defect_bound', 0.5, 0.7)\n"
    "call('expm', 4.0 * x)\n"
    "call('expm', x, [0.01, 5.0, -2j])\n"
    "call('save_matrix', u, 'u.json')\n"
    "call('load_matrix', 'u.json')\n"
    "call('matrix_from_json_dict', call('matrix_to_json_dict', u))\n"
    "for name in ('equidistant', 'pathological', 'pathological_tv_exact', 'uhrig'):\n"
    "    call(name, 8)\n"
    "for name in ('equidistant_family', 'pathological_family', 'uhrig_family'):\n"
    "    call(name)\n"
    "call('family_by_name', 'uniform')\n"
    "call('from_cdf', np.sqrt, 8)\n"
    "call('cdf_family', np.sqrt)\n"
    "table = call('table_density_family', [0.0, 0.5, 1.0], [0.5, 1.5, 0.5])\n"
    "call('cohen_uniformity_probe', table, 64)\n"
    "call('tv_functional', row)\n"
    "call('save_schedule', row, 'row.json')\n"
    "call('load_schedule', 'row.json')\n"
    "call('schedule_from_json_dict', call('schedule_to_json_dict', row))\n"
    "spec = call('spectrum', u)\n"
    "call('commutant_project', spec, x)\n"
    "call('yosida_split', spec, x)\n"
    "call('solve_coboundary', spec, x)\n"
    "call('cesaro_mean', u, x, 99)\n"
    "call('weighted_cesaro_mean', u, x, row)\n"
    "call('pulse_product', s, row)\n"
    "call('control_error', s, row)\n"
    "call('limit_evolution', s, 8)\n"
    "call('schedule_bound_rhs', s, row)\n"
    "call('equidistant_bound_constants', s)\n"
    "report = call('convergence_sweep', s, ergopulse.uhrig_family(), [4, 8, 16])\n"
    "call('report_to_json_dict', report)\n"
    "call('write_report_csv', report, 'report.csv')\n"
    "call('minimize_tv', 3)\n"
    "call('minimize_bound_rhs', s, 2)\n"
    "call('simplex_lattice', 3, 0.25)\n"
    "call('brute_force_simplex_grid', 3, 0.25, lambda w: float(w.max()))\n"
    + _cli("sweep --system qubit-z-x --family uniform --n 2,4,8 --t 6")
    + "\n"
    + _cli("optimize --mode bound --system qubit-z-x --n 3")
    + "\n"
    + _cli("probe --family uhrig --nmax 64")
    + "\n"
    + _cli("schedule --family uhrig --n 9")
    + "\n"
    "public = {n for n in ergopulse.__all__ if inspect.isfunction(getattr(ergopulse, n))}\n"
    "print(sorted(public ^ done))\n"
)


def test_every_public_function_and_subcommand_runs_without_scipy(tmp_path):
    # the public functions left uncalled, and the names called that are none
    assert _fresh(SCIPY_BLOCKED, tmp_path).splitlines()[-1] == "[]"
