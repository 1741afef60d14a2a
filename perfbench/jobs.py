"""The four workloads as seeded job lists, with their correctness checks.

Each workload function turns (seed, size, workdir) into a list of Jobs.  Building
the list is the workload's input generation and counts toward setup_s;
it writes the seeded system files the CLI jobs read.  A job's ``run``
calls only ergopulse (the public API or ``ergopulse.cli.main``) and
returns plain data; ``check`` returns a list of failure messages for
that data.  The structure of every list (dimensions, families, pulse
counts, optimizer settings) is fixed, and the seed draws only matrix
entries, times and weight rows, so the work per list does not depend on
the seed.

Sizes: "full" is the measured job list; "toy" is the same list shrunk
for the smoke test.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import ergopulse as ep
import ergopulse.cli

# Value of `optimize --mode bound --system qubit-z-x --n 3` at CLI
# defaults; near_uniform is false there.
QUBIT_BOUND_N3 = 2.3301980797406134


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _write_system(path, u, key, m):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"u": ep.matrix_to_json_dict(u), key: ep.matrix_to_json_dict(m)},
            fh,
            sort_keys=True,
        )


def _coboundary(rng, d, useed):
    """Seeded (u, X) with X = Y - u Y u* non-normal, minimal ||Y|| in [0.2, 1]."""
    u = ep.random_unitary(d, min_phase_gap=0.1, seed=useed)
    y = _random_complex(rng, d)
    x = y - u @ y @ u.conj().T
    norm_y = ep.op_norm(ep.solve_coboundary(ep.spectrum(u), x))
    return u, x * (rng.uniform(0.2, 1.0) / norm_y)


def _cli(argv):
    code = ep.cli.main(argv)
    if code != 0:
        raise RuntimeError("ergopulse %s exited with %d" % (" ".join(argv), code))


# -- sweep --------------------------------------------------------------


def _sweep_rows(data: bytes, fmt: str):
    """(N, error, total_rhs or None) per row of a sweep report."""
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
        return [
            (int(r["N"]), float(r["error"]), float(r["total_rhs"]) if r["total_rhs"] else None)
            for r in reader
        ]
    report = json.loads(data)["report"]
    bounds = report["bounds"] or [None] * len(report["n_values"])
    return [
        (n, e, b["total_rhs"] if b else None)
        for n, e, b in zip(report["n_values"], report["errors"], bounds)
    ]


def sweep(seed: int, size: str, workdir: str) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    n_range = "16:4096:geometric" if size == "full" else "16:128:geometric"
    families = ("uniform", "uhrig", "pathological")
    # (system, family, format, complex t): the preset with every family,
    # then one normal-generator system file per dimension 2..8.
    specs = [("qubit-z-x", f, fmt, False) for f, fmt in zip(families, ("csv", "json", "csv"))]
    for k, d in enumerate(range(2, 9)):
        specs.append((d, families[k % 3], ("json", "csv")[k % 2], k % 2 == 1))
    jobs = []
    for k, (system, family, fmt, complex_t) in enumerate(specs):
        if system != "qubit-z-x":
            u = ep.random_unitary(system, min_phase_gap=0.1, seed=int(rng.integers(2**31)))
            h = _random_complex(rng, system)
            h = h + h.conj().T
            h *= rng.uniform(0.5, 1.5) / ep.op_norm(h)
            path = os.path.join(workdir, "sweep-system-%d.json" % system)
            _write_system(path, u, "hamiltonian", h)
            system = path
        t = "%r" % rng.uniform(0.5, 1.5)
        if complex_t:
            t += ",%r" % rng.uniform(-0.3, 0.3)
        out = os.path.join(workdir, "sweep-%d.%s" % (k, fmt))
        argv = ["sweep", "--system", system, "--family", family, "--n", n_range,
                "--t", t, "--format", fmt, "--out", out]

        def run(argv=argv, out=out):
            _cli(argv)
            with open(out, "rb") as fh:
                return fh.read()

        def check(data, fmt=fmt):
            rows = _sweep_rows(data, fmt)
            return [
                "N=%d: error %r > total_rhs %r" % (n, e, rhs)
                for n, e, rhs in rows
                if rhs is not None and not e <= rhs
            ]

        name = "sweep %s %s %s t=%s" % (os.path.basename(str(system)), family, fmt, t)
        jobs.append(Job(name, run, check))
    return jobs


# -- bounds -------------------------------------------------------------


def bounds(seed: int, size: str, workdir: str) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    full = size == "full"
    dims = range(2, 9) if full else range(2, 4)
    dirichlet_ns = (8, 16, 32, 64, 128, 256) if full else (8, 16)
    n_equi, n_uhrig = (4096, 256) if full else (256, 32)
    jobs = []
    for d in dims:
        u, x = _coboundary(rng, d, int(rng.integers(2**31)))
        system = ep.PulseSystem(u=u, generator=x, t=rng.uniform(0.1, 1.0))
        rows = [ep.Schedule(n, rng.dirichlet(np.ones(n))) for n in dirichlet_ns]
        rows += [ep.equidistant(n_equi), ep.uhrig_family()(n_uhrig)]

        def run(system=system, rows=rows):
            constants = ep.equidistant_bound_constants(system)
            limit = ep.limit_evolution(system, n_equi)
            errors = [ep.control_error(system, row) for row in rows]
            rhs = [ep.schedule_bound_rhs(system, row).total_rhs for row in rows]
            return {"m_const": constants.m_const, "limit": limit, "errors": errors, "rhs": rhs}

        def check(out, system=system, rows=rows):
            bad = [
                "n=%d: control_error %r > total_rhs %r" % (row.n, e, r)
                for row, e, r in zip(rows, out["errors"], out["rhs"])
                if not e <= r
            ]
            scaled = n_equi * out["errors"][len(dirichlet_ns)]
            if not scaled <= out["m_const"]:
                bad.append("N*error %r > m_const %r at N=%d" % (scaled, out["m_const"], n_equi))
            drift = ep.op_norm(out["limit"] - np.linalg.matrix_power(system.u, n_equi))
            if not drift <= 1e-9:
                bad.append("limit_evolution differs from u^N by %.3g" % drift)
            return bad

        jobs.append(Job("bounds d=%d" % d, run, check))
    return jobs


# -- optimize -----------------------------------------------------------


def optimize(seed: int, size: str, workdir: str) -> list[Job]:
    rng = np.random.default_rng([seed, 3])
    full = size == "full"
    u, x = _coboundary(rng, 3, int(rng.integers(2**31)))
    # The bound objective sees the system only through |t| ||Y||; fixing it
    # keeps the descent's work the same for every seed.
    x *= 0.6 / ep.op_norm(ep.solve_coboundary(ep.spectrum(u), x))
    t = 1.25
    system_path = os.path.join(workdir, "optimize-system.json")
    _write_system(system_path, u, "generator", x)
    # TV runs 10 restarts instead of the CLI's 100 so the list fits a run;
    # the bound runs use CLI defaults.
    tv_flags = ["--restarts", "10"] if full else ["--restarts", "1", "--max-iters", "50"]
    bound_flags = [] if full else ["--restarts", "1", "--max-iters", "10"]
    qubit = ep.cli.PRESETS["qubit-z-x"](1.0)
    seeded = ep.PulseSystem(u=u, generator=x, t=t)
    specs = [("tv", n, None, None, tv_flags) for n in ((2, 3, 4, 5) if full else (2, 3))]
    specs.append(("bound", 3 if full else 2, "qubit-z-x", qubit, bound_flags))
    specs.append(("bound", 2, system_path, seeded, bound_flags))
    jobs = []
    for k, (mode, n, system, sys_obj, flags) in enumerate(specs):
        out = os.path.join(workdir, "optimize-%d.json" % k)
        argv = ["optimize", "--mode", mode, "--n", str(n), "--out", out] + flags
        if system is not None:
            argv += ["--system", system, "--t", "%r" % sys_obj.t.real]

        def run(argv=argv, out=out):
            _cli(argv)
            with open(out, "rb") as fh:
                return fh.read()

        def check(data, mode=mode, n=n, system=system, sys_obj=sys_obj):
            res = json.loads(data)
            value = res["value"]
            if mode == "tv":
                bad = []
                if not abs(value - 2.0 / n) <= 1e-9:
                    bad.append("TV optimum %r is not 2/%d" % (value, n))
                if not res["max_deviation_from_uniform"] <= 1e-6:
                    bad.append("TV minimizer is %r from uniform" % res["max_deviation_from_uniform"])
                return bad
            if full and system == "qubit-z-x":
                bad = []
                if not abs(value - QUBIT_BOUND_N3) <= 1e-9:
                    bad.append("bound optimum %r, expected %r" % (value, QUBIT_BOUND_N3))
                if res["near_uniform"]:
                    bad.append("bound minimizer reported near_uniform")
                return bad
            # The descent starts at the even split, so it can only improve on it.
            uniform = ep.schedule_bound_rhs(sys_obj, ep.equidistant(n)).total_rhs
            if not (0.0 < value <= uniform * (1 + 1e-9) + 1e-12):
                return ["bound optimum %r not in (0, uniform value %r]" % (value, uniform)]
            return []

        jobs.append(Job("optimize %s n=%d %s" % (mode, n, system or ""), run, check))
    return jobs


# -- cesaro -------------------------------------------------------------


def _weighted_reference(u, x, w):
    """sum_k w[k-1] u^k x u^-k from the eigenbasis of u, one phase pair at a time."""
    spec = ep.spectrum(u)
    basis, phases = spec.basis, spec.col_phases
    xe = basis.conj().T @ x @ basis
    k = np.arange(1, w.shape[0] + 1)
    out = np.empty_like(xe)
    for i in range(xe.shape[0]):
        for j in range(xe.shape[0]):
            out[i, j] = xe[i, j] * (w @ np.exp(1j * (phases[i] - phases[j]) * k))
    return basis @ out @ basis.conj().T


def _check_mean(u, x, w, mean, gap=False):
    bad = []
    err = ep.op_norm(mean - _weighted_reference(u, x, w))
    if not err <= 1e-8 * max(1.0, ep.op_norm(x)):
        bad.append("mean off the eigenbasis reference by %.3g" % err)
    if gap:
        g = ep.op_norm(ep.commutant_project(ep.spectrum(u), x) - mean)
        if not g <= 100.0 * ep.op_norm(x) / w.shape[0]:
            bad.append("Cesaro gap %.3g above 100||x||/N" % g)
    return bad


def cesaro(seed: int, size: str, workdir: str) -> list[Job]:
    rng = np.random.default_rng([seed, 4])
    n = 100_000 if size == "full" else 2_000

    def system(d):
        u = ep.random_unitary(d, min_phase_gap=0.1, seed=int(rng.integers(2**31)))
        return u, _random_complex(rng, d)

    u2, x2 = system(2)
    jobs = [
        Job(
            "cesaro_mean d=2",
            lambda: ep.cesaro_mean(u2, x2, n),
            lambda mean: _check_mean(u2, x2, np.full(n, 1.0 / n), mean, gap=True),
        )
    ]
    for d, family in ((5, ep.uhrig_family), (8, ep.pathological_family)):
        u, x = system(d)
        jobs.append(
            Job(
                "weighted_cesaro_mean d=%d %s" % (d, family().name),
                lambda u=u, x=x, f=family: ep.weighted_cesaro_mean(u, x, f()(n)),
                lambda mean, u=u, x=x, f=family: _check_mean(u, x, f()(n).weights, mean),
            )
        )

    triples = []
    for trial in range(50 if size == "full" else 5):
        d = 2 + trial % 5
        u = ep.random_unitary(d, seed=int(rng.integers(2**31)))
        y = _random_complex(rng, d)
        triples.append((u, y, y - u @ y @ u.conj().T, int(rng.integers(1, 65))))

    def telescope():
        return [ep.cesaro_mean(u, x, m) for u, _y, x, m in triples]

    def check_telescope(means):
        bad = []
        for (u, y, _x, m), mean in zip(triples, means):
            um = np.linalg.matrix_power(u, m + 1)
            boundary = u @ y @ u.conj().T - um @ y @ um.conj().T
            err = ep.op_norm(mean * m - boundary)
            if not err <= 1e-10:
                bad.append("coboundary sum misses its boundary form by %.3g" % err)
        return bad

    jobs.append(Job("coboundary telescoping", telescope, check_telescope))

    for family, verdict in ((ep.uhrig_family, "consistent-with-uniform"),
                            (ep.pathological_family, "violates-uniform")):

        def probe(family=family):
            r = ep.cohen_uniformity_probe(family(), n)
            return {"tail_sup": r.tail_sup, "tv": r.tv_sequence, "verdict": r.verdict}

        def check_probe(out, verdict=verdict):
            return [] if out["verdict"] == verdict else ["verdict %s" % out["verdict"]]

        jobs.append(Job("cohen_uniformity_probe %s" % family().name, probe, check_probe))
    return jobs


WORKLOADS = {"sweep": sweep, "bounds": bounds, "optimize": optimize, "cesaro": cesaro}
