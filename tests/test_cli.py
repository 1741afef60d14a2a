"""End-to-end tests for the ergopulse command line.

Every test drives main() directly with an argv list, so exit codes and
stdout/stderr are exercised exactly as a shell user would see them.
"""

import csv
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ergopulse import cli
from ergopulse.cli import main
from ergopulse.matrixcore import matrix_to_json_dict
from ergopulse.schedules import load_schedule, tv_functional, uhrig_family


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        capsys, "schedule", "--kind", "uniform", "--n", "4", "--out", str(out)
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
        capsys, "schedule", "--kind", "uhrig", "--n", "8", "--out", str(out)
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
        capsys,
        "schedule",
        "--kind",
        "density-file",
        "--density",
        str(dens),
        "--n",
        "3",
        "--out",
        str(out),
    )
    assert code == 0
    row = load_schedule(out)
    # integrals of 0.5 + x over thirds of [0, 1]
    assert_allclose(row.weights, [2 / 9, 3 / 9, 4 / 9], atol=1e-12)


def test_schedule_density_file_requires_density(tmp_path, capsys):
    out = tmp_path / "row.json"
    code, _, err = _run(
        capsys, "schedule", "--kind", "density-file", "--n", "3", "--out", str(out)
    )
    assert code == 2
    assert "--density" in err
    assert not out.exists()


def test_schedule_rejects_unknown_kind(tmp_path, capsys):
    code, _, _ = _run(
        capsys,
        "schedule",
        "--kind",
        "sinusoidal",
        "--n",
        "4",
        "--out",
        str(tmp_path / "x.json"),
    )
    assert code == 2  # argparse choice failure


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
    out = str(tmp_path / "x.csv")
    for bad in ("", "4:2:geometric", "4:64:linear", "abc"):
        code, _, err = _run(
            capsys, "sweep", "--system", "qubit-z-x", "--n", bad, "--out", out
        )
        assert code == 2, bad
        assert err.startswith("error:")


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
