"""End-to-end tests for the ergopulse command line.

Every test drives main() directly with an argv list, so exit codes and
stdout/stderr are exercised exactly as a shell user would see them.
"""

import csv
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ergopulse import cli, matrixcore, schedules
from ergopulse.cli import main
from ergopulse.matrixcore import matrix_to_json_dict, random_unitary
from ergopulse.schedules import load_schedule, tv_functional, uhrig_family


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _strict_json(path):
    """The JSON file at path, parsed as strict JSON: NaN, Infinity and
    -Infinity are refused."""
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


def _write_system(path, u, generator=None, hamiltonian=None, extra=None):
    obj = {"u": matrix_to_json_dict(u)}
    if generator is not None:
        obj["generator"] = matrix_to_json_dict(generator)
    if hamiltonian is not None:
        obj["hamiltonian"] = matrix_to_json_dict(hamiltonian)
    if extra:
        obj.update(extra)
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ------------------------------------------------------------- schedule


def test_schedule_uniform_row_and_tv_line(tmp_path, capsys):
    out = tmp_path / "row.json"
    code, stdout, _ = _run(
        capsys, "schedule", "--family", "uniform", "--n", "4", "--out", str(out)
    )
    assert code == 0
    row = load_schedule(out)
    assert_allclose(row.weights, [0.25] * 4, atol=0)
    assert "tv=0.5" in stdout
    payload = json.loads(out.read_text())
    assert payload == {"n": 4, "weights": [0.25, 0.25, 0.25, 0.25]}


def test_schedule_uhrig_round_trips_family_row(tmp_path, capsys):
    out = tmp_path / "uhrig8.json"
    code, stdout, _ = _run(
        capsys, "schedule", "--family", "uhrig", "--n", "8", "--out", str(out)
    )
    assert code == 0
    row = load_schedule(out)
    want = uhrig_family()(8)
    assert np.array_equal(row.weights, want.weights)
    assert repr(tv_functional(want)) in stdout


def test_schedule_density_file_kind(tmp_path, capsys):
    dens = tmp_path / "ramp.json"
    dens.write_text(json.dumps({"xs": [0.0, 1.0], "ys": [0.5, 1.5]}))
    out = tmp_path / "row.json"
    code, _, _ = _run(
        capsys, "schedule", "--family", str(dens), "--n", "3", "--out", str(out)
    )
    assert code == 0
    row = load_schedule(out)
    # integrals of 0.5 + x over thirds of [0, 1]
    assert_allclose(row.weights, [2 / 9, 3 / 9, 4 / 9], atol=1e-12)


def test_schedule_rejects_unknown_kind(tmp_path, capsys):
    # schedule takes no --kind or --density: it names a family by
    # --family, as sweep and probe do
    dens = tmp_path / "ramp.json"
    dens.write_text(json.dumps({"xs": [0.0, 1.0], "ys": [0.5, 1.5]}))
    out = tmp_path / "x.json"
    for flags in (["--kind", "uhrig"], ["--density", str(dens)]):
        argv = ["schedule", "--family", "uhrig", *flags, "--n", "4", "--out", str(out)]
        code, _, err = _run(capsys, *argv)
        assert code == 2, flags
        assert f"unrecognized arguments: {' '.join(flags)}" in err
    code, _, err = _run(
        capsys, "schedule", "--family", "sinusoidal", "--n", "4", "--out", str(out)
    )
    assert code == 2
    assert "neither a built-in family name nor" in err
    assert not out.exists()


# ---------------------------------------------------------------- sweep


def test_sweep_csv_output_parses_and_reports(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = _run(
        capsys,
        "sweep",
        "--system",
        "qubit-z-x",
        "--n",
        "4,8,16",
        "--t",
        "1",
        "--out",
        str(out),
    )
    assert code == 0
    assert "slope=" in stdout and "final_error=" in stdout
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["N"]) for r in rows] == [4, 8, 16]
    errs = [float(r["error"]) for r in rows]
    assert errs[0] > errs[1] > errs[2] > 0
    bounds = [float(r["total_rhs"]) for r in rows]
    assert all(b >= e for b, e in zip(bounds, errs))


def test_sweep_runs_are_byte_identical(tmp_path, capsys):
    args = [
        "sweep",
        "--system",
        "qubit-z-x",
        "--family",
        "uhrig",
        "--n",
        "4:16:geometric",
        "--t",
        "0.5,0.25",
        "--format",
        "json",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_rejects_seed_flag(tmp_path, capsys):
    # a sweep draws no random numbers, so it takes no seed
    out = tmp_path / "x.json"
    code, _, err = _run(
        capsys,
        "sweep",
        "--system",
        "qubit-z-x",
        "--n",
        "4,8",
        "--format",
        "json",
        "--seed",
        "7",
        "--out",
        str(out),
    )
    assert code == 2
    assert "--seed" in err
    assert not out.exists()


def test_sweep_and_optimize_reject_removed_imax(tmp_path, capsys):
    # the defect series is a closed form with no truncation order
    out = tmp_path / "x.json"
    for argv in (
        ["sweep", "--system", "qubit-z-x", "--n", "4,8,16", "--format", "json"],
        ["optimize", "--mode", "bound", "--system", "qubit-z-x", "--n", "2"],
    ):
        code, _, err = _run(capsys, *argv, "--imax", "40", "--out", str(out))
        assert code == 2, argv
        assert "--imax" in err
        assert not out.exists()


def test_sweep_json_payload_structure(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code, _, _ = _run(
        capsys,
        "sweep",
        "--system",
        "qubit-z-x",
        "--n",
        "4,8,16",
        "--format",
        "json",
        "--out",
        str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"] == {
        "system": "qubit-z-x",
        "family": "uniform",
        "t": [1.0, 0.0],
    }
    report = payload["report"]
    assert report["n_values"] == [4, 8, 16]
    assert len(report["errors"]) == 3


def test_sweep_accepts_system_file_generator_and_hamiltonian(tmp_path, capsys):
    u = np.diag([1.0, 1.0j])
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    f_gen = _write_system(tmp_path / "gen.json", u, generator=-1j * h)
    f_ham = _write_system(tmp_path / "ham.json", u, hamiltonian=h)
    out_gen, out_ham = tmp_path / "gen.csv", tmp_path / "ham.csv"
    assert main(["sweep", "--system", f_gen, "--n", "4,8,16", "--out", str(out_gen)]) == 0
    assert main(["sweep", "--system", f_ham, "--n", "4,8,16", "--out", str(out_ham)]) == 0
    capsys.readouterr()
    assert out_gen.read_bytes() == out_ham.read_bytes()


@pytest.mark.parametrize(
    "family, hamiltonian, route",
    [
        # u = s_z, H = 800 s_x: a coboundary with |t| ||Y|| = 400, so
        # e^{2 |t| ||Y||} overflows
        ("uniform", [[0.0, 800.0], [800.0, 0.0]], "schedule"),
        ("uhrig", [[0.0, 800.0], [800.0, 0.0]], "schedule"),
        # a commutant part as well: e^{||X|| |t|} overflows too
        ("uniform", [[800.0, 800.0], [800.0, -800.0]], "constants"),
    ],
)
def test_sweep_overflowing_bounds_are_inf(tmp_path, capsys, family, hamiltonian, route):
    u, h = np.diag([1.0, -1.0]), np.array(hamiltonian)
    system = _write_system(tmp_path / "system.json", u, hamiltonian=h)
    outs = {"csv": tmp_path / "sweep.csv", "json": tmp_path / "sweep.json"}
    for fmt, out in outs.items():
        argv = ["sweep", "--system", system, "--family", family, "--n", "4,8,16"]
        code, _, err = _run(capsys, *argv, "--format", fmt, "--out", str(out))
        assert code == 0, err
    with open(outs["csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert row["m_const"] == row["m_prime_const"] == "inf"
        assert float(row["error"]) <= float(row["total_rhs"])
    # strict JSON has no token for +inf: the overflowed fields are null
    report = _strict_json(outs["json"])["report"]
    assert report["bound_route"] == route
    assert [b["m_prime_const"] for b in report["bounds"]] == [None] * 3
    if route == "constants":
        assert [b["total_rhs"] for b in report["bounds"]] == [None] * 3


def test_sweep_of_huge_hamiltonian_matches_its_rescaled_twin(tmp_path, capsys):
    # (1e9 H, t = 1e-9) is the same evolution as (H, t = 1): same route and
    # errors, although ||P(X)|| rounds to about 1e-7 at the large scale
    u = random_unitary(3, 0.2, seed=5)
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + h.conj().T) / 2
    reports = []
    for scale, t in ((1.0, "1"), (1e9, "1e-9")):
        system = _write_system(tmp_path / "h.json", u, hamiltonian=scale * h)
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--system", system, "--t", t, "--n", "4,8,16"]
        code, _, err = _run(capsys, *argv, "--format", "json", "--out", str(out))
        assert code == 0, err
        reports.append(json.loads(out.read_text())["report"])
    small, huge = reports
    assert huge["bound_route"] == small["bound_route"] == "constants"
    assert_allclose(huge["errors"], small["errors"], rtol=1e-6)


@pytest.mark.parametrize("family", ["uniform", "uhrig", "pathological"])
def test_sweep_with_an_overflowing_limit_factor_exits_2(tmp_path, capsys, family):
    # u diagonal and X = diag(1, 0): P(X) = X, and e^{P(X) t} overflows at
    # t = 800; a warning would fail the test, a wrong number the message
    system = _write_system(
        tmp_path / "system.json", np.diag([1.0, 1j]), generator=np.diag([1.0, 0.0])
    )
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--system", system, "--family", family, "--t", "800"]
    code, stdout, err = _run(capsys, *argv, "--n", "4,8,16", "--out", str(out))
    assert code == 2
    assert err == "error: the matrix exponential overflows: e^m came out non-finite\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("family", ["uniform", "uhrig", "pathological"])
def test_sweep_with_an_overflowing_pulse_product_exits_2(tmp_path, capsys, family):
    # u = diag(1, -1), X = 2000 s_x: u e^{aX} u e^{aX} = I exactly, every
    # factor e^{aX} is finite (a <= 0.24), and the chain's products are not
    system = _write_system(
        tmp_path / "system.json",
        np.diag([1.0, -1.0]),
        generator=np.array([[0.0, 2000.0], [2000.0, 0.0]]),
    )
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--system", system, "--family", family, "--n", "8,16,32"]
    code, stdout, err = _run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err == (
        "error: the pulse product overflows: a product of its factors came "
        "out non-finite\n"
    )
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("family, calls", [("uniform", 2), ("uhrig", 6)])
def test_sweep_makes_one_expm_call_per_group_of_rows(
    tmp_path, capsys, monkeypatch, family, calls
):
    # the limit factor, then one call per group of rows whose distinct
    # weights total at most CHAIN_BLOCK = 256: the nine uniform rows are
    # one group, the Uhrig rows N = 16..256 (8 + 16 + ... + 128 weights)
    # one and N = 512..4096 one each
    expm = matrixcore.expm
    seen = []

    def counted(*args, **kwargs):
        seen.append(args)
        return expm(*args, **kwargs)

    monkeypatch.setattr(matrixcore, "expm", counted)
    out = str(tmp_path / "sweep.csv")
    argv = ["sweep", "--system", "qubit-z-x", "--family", family, "--n"]
    code, _, _ = _run(capsys, *argv, "16:4096:geometric", "--out", out)
    assert code == 0
    assert len(seen) == calls


def test_sweep_rejects_unknown_system_and_family(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    code, _, err = _run(
        capsys, "sweep", "--system", "no-such-preset", "--n", "4", "--out", out
    )
    assert code == 2
    assert "neither a preset" in err
    code, _, err = _run(
        capsys,
        "sweep",
        "--system",
        "qubit-z-x",
        "--family",
        "no-such-family",
        "--n",
        "4",
        "--out",
        out,
    )
    assert code == 2
    assert "neither a built-in family" in err


def test_sweep_rejects_malformed_pulse_counts(tmp_path, capsys):
    # every message names the flag, a range with a non-integer bound too
    out = str(tmp_path / "x.csv")
    for bad in (
        "",
        "4:2:geometric",
        "4:64:linear",
        "abc",
        "a:4:geometric",
        "4:b:geometric",
        ":64:geometric",
        "4:64:geometric:x",
    ):
        code, _, err = _run(
            capsys, "sweep", "--system", "qubit-z-x", "--n", bad, "--out", out
        )
        assert code == 2, bad
        assert err.startswith("error: --n "), (bad, err)


def test_sweep_rejects_malformed_time(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "sweep",
        "--system",
        "qubit-z-x",
        "--n",
        "4",
        "--t",
        "1,2,3",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "--t" in err


def test_sweep_rejects_malformed_system_file(tmp_path, capsys):
    u = np.diag([1.0, -1.0])
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"u": matrix_to_json_dict(u)}))
    both = _write_system(tmp_path / "both.json", u, generator=-1j * h, hamiltonian=h)
    not_json = tmp_path / "junk.json"
    not_json.write_text("{nope")
    for bad in (str(missing), both, str(not_json)):
        code, _, err = _run(
            capsys,
            "sweep",
            "--system",
            bad,
            "--n",
            "4",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 2, bad
        assert err.startswith("error:")


def test_sweep_rejects_unknown_system_file_keys(tmp_path, capsys):
    # a "t" key would otherwise be ignored and the sweep run at --t
    u, h = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    system = _write_system(
        tmp_path / "system.json", u, hamiltonian=h, extra={"t": 0.5, "note": ""}
    )
    out = tmp_path / "x.csv"
    code, _, err = _run(
        capsys, "sweep", "--system", system, "--n", "4", "--out", str(out)
    )
    assert code == 2
    assert "has unknown keys ['note', 't']" in err
    assert not out.exists()


def test_schedule_rejects_unknown_density_file_keys(tmp_path, capsys):
    dens = tmp_path / "ramp.json"
    dens.write_text(json.dumps({"xs": [0.0, 1.0], "ys": [0.5, 1.5], "n": 3}))
    out = tmp_path / "row.json"
    code, _, err = _run(
        capsys, "schedule", "--family", str(dens), "--n", "3", "--out", str(out)
    )
    assert code == 2
    assert f"--family file {str(dens)!r} has unknown keys ['n']" in err
    assert not out.exists()


def test_schedule_density_names_no_built_in_family(tmp_path, capsys, monkeypatch):
    # ./uhrig is a path: with no such file it fails, and never falls back
    # to the built-in family
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "row.json"
    argv = ["schedule", "--family", "./uhrig"]
    code, _, err = _run(capsys, *argv, "--n", "4", "--out", str(out))
    assert code == 2
    assert "--family './uhrig' is neither" in err
    assert not out.exists()


def test_schedule_reads_density_file_named_like_a_family(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ramp = {"xs": [0.0, 1.0], "ys": [0.5, 1.5], "name": "ramp"}
    (tmp_path / "uhrig").write_text(json.dumps(ramp))
    out = tmp_path / "row.json"
    argv = ["schedule", "--n", "3", "--out", str(out), "--family"]
    code, stdout, _ = _run(capsys, *argv, "./uhrig")
    assert code == 0
    # the file's ramp 0.5 + x, not the built-in Uhrig row
    assert_allclose(load_schedule(out).weights, [2 / 9, 3 / 9, 4 / 9], atol=1e-12)
    assert "family=ramp" in stdout
    # the bare name is the built-in family, file or no file
    code, stdout, _ = _run(capsys, *argv, "uhrig")
    assert code == 0
    assert np.array_equal(load_schedule(out).weights, uhrig_family()(3).weights)
    assert "family=uhrig" in stdout


@pytest.mark.parametrize("name", [None, [1, 2], 3, {"a": 1}])
@pytest.mark.parametrize("command", ["schedule", "probe", "sweep"])
def test_density_table_name_must_be_a_string(tmp_path, capsys, name, command):
    dens = tmp_path / "ramp.json"
    dens.write_text(json.dumps({"xs": [0.0, 1.0], "ys": [1.0, 1.0], "name": name}))
    out = tmp_path / "out.json"
    flags = {
        "schedule": ["--n", "4"],
        "probe": ["--nmax", "16"],
        "sweep": ["--system", "qubit-z-x", "--n", "4,8,16"],
    }[command]
    argv = [command, "--family", str(dens), *flags, "--out", str(out)]
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert f'"name" must be a string, got {json.dumps(name)}' in err
    assert not out.exists()


# ------------------------------------------------------------- optimize


def test_optimize_tv_writes_uniform_result(tmp_path, capsys):
    out = tmp_path / "tv.json"
    code, stdout, _ = _run(
        capsys,
        "optimize",
        "--mode",
        "tv",
        "--n",
        "3",
        "--restarts",
        "10",
        "--max-iters",
        "400",
        "--out",
        str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "tv"
    assert payload["value"] == pytest.approx(2 / 3, abs=1e-9)
    assert_allclose(payload["weights"], [1 / 3] * 3, atol=1e-6)
    assert payload["certified_by_grid"] is True
    assert payload["near_uniform"] is True
    assert payload["max_deviation_from_uniform"] <= 1e-6
    assert "near_uniform=True" in stdout


@pytest.mark.parametrize(
    "flags", [["--restarts", "10"], ["--restarts", "1", "--max-iters", "50"]]
)
def test_optimize_tv_ignores_descent_flags(tmp_path, capsys, flags):
    # the descent flags set the bound minimizer; the TV minimizer is a
    # closed form, and runs that pass them write the same result
    plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
    argv = ["optimize", "--mode", "tv", "--n", "4", "--out"]
    assert _run(capsys, *argv, str(plain))[0] == 0
    assert _run(capsys, *argv, str(flagged), *flags)[0] == 0
    assert flagged.read_bytes() == plain.read_bytes()
    assert json.loads(plain.read_text())["iterations_used"] == 0


def test_optimize_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = ["optimize", "--mode", "tv", "--n", "3", "--seed", "-1", "--out", str(out)]
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert "seed" in err
    assert not out.exists()


def test_optimize_bound_reports_uniform_proximity(tmp_path, capsys):
    out = tmp_path / "bound.json"
    code, stdout, _ = _run(
        capsys,
        "optimize",
        "--mode",
        "bound",
        "--system",
        "qubit-z-x",
        "--t",
        "1",
        "--n",
        "2",
        "--restarts",
        "6",
        "--max-iters",
        "200",
        "--resolution",
        "0.05",
        "--out",
        str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "bound"
    assert_allclose(payload["weights"], [0.5, 0.5], atol=1e-6)
    assert payload["near_uniform"] is True
    assert payload["value"] > 0
    assert "near_uniform=True" in stdout


def test_optimize_bound_flags_non_uniform_minimizer(tmp_path, capsys):
    # at three weights and unit generator scale the honest minimizer
    # front-loads; the CLI must say so rather than claim uniformity
    out = tmp_path / "bound3.json"
    code, stdout, _ = _run(
        capsys,
        "optimize",
        "--mode",
        "bound",
        "--system",
        "qubit-z-x",
        "--t",
        repr(math.sqrt(2.0)),
        "--n",
        "3",
        "--restarts",
        "6",
        "--max-iters",
        "300",
        "--resolution",
        "0.05",
        "--out",
        str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["near_uniform"] is False
    assert payload["max_deviation_from_uniform"] > 0.1
    assert "near_uniform=False" in stdout


def test_optimize_bound_requires_system(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "optimize",
        "--mode",
        "bound",
        "--n",
        "3",
        "--out",
        str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "--system" in err


def test_json_output_is_strict_json(tmp_path, capsys):
    # a value past the float range is written as null, never as the bare
    # token Infinity
    out = tmp_path / "b.json"
    argv = ["optimize", "--mode", "bound", "--system", "qubit-z-x", "--n", "2"]
    code, stdout, err = _run(capsys, *argv, "--t", "1e308", "--out", str(out))
    assert code == 0, err
    assert "value=inf" in stdout
    assert _strict_json(out)["value"] is None
    # u = s_z, H = 800 s_x: |t| ||Y|| = 400, so the rate constants overflow
    system = _write_system(
        tmp_path / "system.json",
        np.diag([1.0, -1.0]),
        hamiltonian=np.array([[0.0, 800.0], [800.0, 0.0]]),
    )
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--system", system, "--family", "uniform", "--format", "json"]
    code, _, err = _run(capsys, *argv, "--n", "4096,8192,16384", "--out", str(out))
    assert code == 0, err
    bounds = _strict_json(out)["report"]["bounds"]
    assert [b["m_const"] for b in bounds] == [None] * 3
    assert all(b["total_rhs"] is None for b in bounds)


def test_optimize_bound_commutant_generator_is_domain_error(tmp_path, capsys):
    # generator already commutes with the pulse: nothing to decouple, and
    # the coboundary-based bound refuses rather than divides by zero
    sysfile = _write_system(
        tmp_path / "commutant.json",
        np.diag([1.0, -1.0]),
        generator=np.diag([1.0j, -1.0j]),
    )
    code, _, err = _run(
        capsys,
        "optimize",
        "--mode",
        "bound",
        "--system",
        sysfile,
        "--n",
        "3",
        "--out",
        str(tmp_path / "x.json"),
    )
    assert code == 3
    assert err.startswith("error:")


def test_optimize_rejects_bad_n(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "optimize",
        "--mode",
        "tv",
        "--n",
        "1",
        "--out",
        str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "n must be" in err


def test_optimize_rejects_resolution_that_does_not_divide_one(
    tmp_path, capsys, monkeypatch
):
    def no_descent(*args, **kwargs):
        raise AssertionError("the descent ran before the resolution was checked")

    monkeypatch.setattr(cli, "minimize_tv", no_descent)
    out = tmp_path / "x.json"
    code, _, err = _run(
        capsys,
        "optimize",
        "--mode",
        "tv",
        "--n",
        "4",
        "--resolution",
        "0.03",
        "--out",
        str(out),
    )
    assert code == 2
    assert "resolution must divide 1" in err
    assert not out.exists()


@pytest.mark.parametrize("resolution", ["5e-324", "1e-310", "1e-320"])
def test_optimize_rejects_subnormal_resolution(tmp_path, capsys, resolution):
    # 1/resolution overflows to inf there
    out = tmp_path / "x.json"
    argv = ["optimize", "--mode", "tv", "--n", "3", "--resolution", resolution]
    code, _, err = _run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert "resolution must be positive and not subnormal" in err
    assert not out.exists()


BOUND_ARGV = ["optimize", "--mode", "bound", "--system", "qubit-z-x", "--n", "2"]
# --restarts and --max-iters stay small: the bound runs for real whenever
# --t is a valid time
NUMERIC_FLAG_ARGV = {
    "resolution": ["optimize", "--mode", "tv", "--n", "3", "--resolution={}"],
    "t": BOUND_ARGV + ["--restarts", "0", "--max-iters", "2", "--t={}"],
    "t re,im": BOUND_ARGV + ["--restarts", "0", "--max-iters", "2", "--t=1,{}"],
    "optimize n": ["optimize", "--mode", "tv", "--n={}"],
    "sweep n": ["sweep", "--system", "qubit-z-x", "--n={}"],
    "kgrid": ["probe", "--family", "uniform", "--nmax", "16", "--kgrid={}"],
}
NUMERIC_VALUES = [
    "nan", "inf", "-inf", "0", "-1", "5e-324", "1e-310", "1e400", "1e308", "abc", ""
]


@pytest.mark.parametrize("value", NUMERIC_VALUES)
@pytest.mark.parametrize("flag", sorted(NUMERIC_FLAG_ARGV))
def test_bad_numeric_flags_never_show_a_traceback(tmp_path, capsys, flag, value):
    argv = [a.format(value) for a in NUMERIC_FLAG_ARGV[flag]]
    code, _, err = _run(capsys, *argv, "--out", str(tmp_path / "x.out"))
    assert code in (0, 2, 3)
    assert "Traceback" not in err


def _no_memory_past(builder, limit):
    """builder, but raising numpy's MemoryError for counts above limit
    without allocating anything."""

    def build(n):
        if n <= limit:
            return builder(n)
        raise MemoryError(
            "Unable to allocate 4.00 TiB for an array with shape "
            f"({n // 2},) and data type float64"
        )

    return build


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--system", "qubit-z-x", "--family", "uhrig", "--n", "2,4,1099511627776"],
        ["schedule", "--family", "uhrig", "--n", "1099511627776"],
    ],
)
def test_a_row_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(schedules, "uhrig", _no_memory_past(schedules.uhrig, 4))
    code, _, err = _run(capsys, *argv, "--out", str(tmp_path / "x.out"))
    assert code == 2
    assert err == (
        "error: out of memory: Unable to allocate 4.00 TiB for an array with "
        "shape (549755813888,) and data type float64\n"
    )
    assert not (tmp_path / "x.out").exists()


def test_a_bare_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    def bare(n):
        raise MemoryError

    monkeypatch.setattr(schedules, "uhrig", bare)
    argv = ["schedule", "--family", "uhrig", "--n", "8", "--out", str(tmp_path / "x")]
    assert _run(capsys, *argv) == (2, "", "error: out of memory\n")


# ---------------------------------------------------------------- probe


def test_probe_pathological_family_violates_uniformity(tmp_path, capsys):
    out = tmp_path / "probe.json"
    code, stdout, _ = _run(
        capsys,
        "probe",
        "--family",
        "pathological",
        "--nmax",
        "64",
        "--out",
        str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "violates-uniform"
    assert "verdict=violates-uniform" in stdout
    final_n, final_v = payload["tv_sequence"][-1]
    assert final_n == 64
    assert final_v > 1.9


def test_probe_uhrig_family_consistent_with_uniformity(tmp_path, capsys):
    out = tmp_path / "probe.json"
    code, _, _ = _run(
        capsys,
        "probe",
        "--family",
        "uhrig",
        "--nmax",
        "128",
        "--kgrid",
        "1,4,16",
        "--out",
        str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "consistent-with-uniform"
    assert [k for k, _ in payload["tail_sup"]] == [1, 4, 16]


def test_probe_accepts_density_table_file(tmp_path, capsys):
    dens = tmp_path / "bump.json"
    dens.write_text(
        json.dumps({"name": "bump", "xs": [0.0, 0.5, 1.0], "ys": [0.5, 1.5, 0.5]})
    )
    out = tmp_path / "probe.json"
    code, _, _ = _run(
        capsys, "probe", "--family", str(dens), "--nmax", "64", "--out", str(out)
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["family"] == "bump"
    assert payload["verdict"] == "consistent-with-uniform"


def test_probe_rejects_empty_k_grid(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "probe",
        "--family",
        "uniform",
        "--nmax",
        "32",
        "--kgrid",
        ",",
        "--out",
        str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "--kgrid" in err


# ------------------------------------------------------------ top level


def test_version_flag_exits_cleanly(capsys):
    code, stdout, _ = _run(capsys, "--version")
    assert code == 0
    assert stdout.startswith("ergopulse ")


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- parser


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    build_parser = cli.build_parser

    def spy():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        out = str(tmp_path / "row.json")
        for _ in range(3):
            argv = ["schedule", "--family", "uhrig", "--n", "4", "--out", out]
            assert main(argv) == 0
            assert main(["--version"]) == 0
            assert main(["frobnicate"]) == 2
        capsys.readouterr()
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def _outcomes(capsys, calls, out, fresh):
    """(exit code, stdout, stderr, --out bytes or None) of each call in
    turn; with fresh, each call builds its parser anew."""
    results = []
    for argv in calls:
        if fresh:
            cli._parser.cache_clear()
        out.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        written = out.read_bytes() if out.exists() else None
        results.append((code, captured.out, captured.err, written))
    return results


def test_a_reused_parser_answers_as_a_fresh_one(tmp_path, capsys):
    commutant = _write_system(
        tmp_path / "commutant.json",
        np.diag([1.0, -1.0]),
        generator=np.diag([1.0j, -1.0j]),
    )
    out = tmp_path / "out.json"
    sweep = ["sweep", "--system", "qubit-z-x", "--family", "uhrig", "--n", "4,8,16"]
    sweep += ["--format", "json", "--out", str(out)]
    optimize = ["optimize", "--mode", "bound", "--system", commutant, "--n", "3"]
    calls = [
        sweep,
        ["sweep", "--system", "qubit-z-x", "--n", "4", "--format", "xml"],
        ["--version"],
        optimize + ["--out", str(out)],
        sweep,
    ]
    cli._parser.cache_clear()
    reused = _outcomes(capsys, calls, out, fresh=False)
    fresh = _outcomes(capsys, calls, out, fresh=True)
    assert [r[0] for r in reused] == [0, 2, 0, 3, 0]
    assert reused[0] == reused[-1] and reused[0][3] is not None
    assert "invalid choice: 'xml'" in reused[1][2]
    assert reused == fresh


# ---------------------------------------------------------------- README


def _readme_commands():
    """Each `ergopulse ...` command of the README's sh blocks, with its
    backslash continuations joined, as an argv list."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ergopulse "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


README_COMMANDS = _readme_commands()


def test_readme_lists_cli_examples():
    assert {argv[0] for argv in README_COMMANDS} == {
        "sweep",
        "schedule",
        "optimize",
        "probe",
    }


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_cli_example_runs(tmp_path, capsys, monkeypatch, argv):
    # the docs describe what the code accepts: every example exits 0
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(capsys, *argv)
    assert code == 0, err
