"""Command-line interface.

Four subcommands: sweep (measure control error over pulse counts and
write a CSV/JSON report), schedule (emit one schedule row as JSON),
optimize (minimize the total-variation functional or a concrete error
bound over schedules), and probe (collect uniformity evidence for a
family).  sweep, schedule and probe take --family NAME|PATH: a built-in
name, else a density-table file (./uhrig for a file named uhrig).  JSON
output is strict, with null for a float that is not finite.  Exit codes:
0 on success, 2 for bad input or configuration (a pulse count too large
to allocate its row included), 3 when a numerical-domain precondition
fails (for example a generator that is not a coboundary).

main(argv) may be called repeatedly in one process: the parser is built
on the first call and reused, since parse_args changes nothing in it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import DomainError
from .evolution import (
    PulseSystem,
    convergence_sweep,
    report_to_json_dict,
    write_report_csv,
)
from .matrixcore import json_number, json_object, matrix_from_json_dict
from .optimizer import OptimizerConfig, minimize_bound_rhs, minimize_tv
from .schedules import (
    ScheduleFamily,
    cohen_uniformity_probe,
    family_by_name,
    save_schedule,
    table_density_family,
    tv_functional,
)


def _preset_qubit_zx(t: complex) -> PulseSystem:
    """Quarter-turn z-axis pulse decoupling a transverse x field."""
    u = np.diag([1.0, 1.0j])
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    return PulseSystem(u=u, generator=-1j * h, t=t)


PRESETS = {"qubit-z-x": _preset_qubit_zx}
FAMILY_HELP = "family name (uniform, uhrig, pathological) or density-table path"


def _parse_time(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValueError(f"--t must be re or re,im; got {text!r}")


def _parse_pulse_counts(text: str) -> list[int]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4) or parts[2] != "geometric":
            raise ValueError(
                f"--n range must be start:stop:geometric[:ratio], got {text!r}"
            )
        start, stop, *rest = _parse_ints(parts[:2] + parts[3:], "--n", text)
        ratio = rest[0] if rest else 2
        if start < 2 or stop < start or ratio < 2:
            raise ValueError("--n range needs 2 <= start <= stop and ratio >= 2")
        counts = []
        n = start
        while n <= stop:
            counts.append(n)
            n *= ratio
        return counts
    return _parse_int_list(text, "--n")


def _parse_int_list(text: str, flag: str) -> list[int]:
    """The comma list of integers given through flag, which the error
    messages name."""
    values = _parse_ints([tok for tok in text.split(",") if tok.strip()], flag, text)
    if not values:
        raise ValueError(f"{flag} lists no values")
    return values


def _parse_ints(tokens: list[str], flag: str, text: str) -> list[int]:
    """tokens as ints, or ValueError naming flag and its whole value text."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"{flag} must list integers, got {text!r}") from None


def _load_system(spec: str, t: complex) -> PulseSystem:
    if spec in PRESETS:
        return PRESETS[spec](t)
    if not os.path.exists(spec):
        raise ValueError(
            f"--system {spec!r} is neither a preset ({sorted(PRESETS)}) "
            "nor an existing file"
        )
    with open(spec, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    json_object(obj, f"--system file {spec!r}", ("u",), ("generator", "hamiltonian"))
    has_g = "generator" in obj
    has_h = "hamiltonian" in obj
    if has_g == has_h:
        raise ValueError(
            f'--system file {spec!r} needs exactly one of "generator" or '
            '"hamiltonian"'
        )
    u = matrix_from_json_dict(obj["u"])
    if has_g:
        x = matrix_from_json_dict(obj["generator"])
    else:
        x = -1j * matrix_from_json_dict(obj["hamiltonian"])
    return PulseSystem(u=u, generator=x, t=t)


def _load_family(spec: str) -> ScheduleFamily:
    """The --family spec: a built-in family name, else a density-table path."""
    try:
        return family_by_name(spec)
    except ValueError:
        if not os.path.exists(spec):
            raise ValueError(
                f"--family {spec!r} is neither a built-in family name nor an "
                "existing density-table file"
            ) from None
    with open(spec, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    what = f"--family file {spec!r}"
    json_object(obj, what, ("xs", "ys"), ("name",))
    name = obj.get("name", os.path.splitext(os.path.basename(spec))[0])
    if not isinstance(name, str):
        raise ValueError(f'{what}: "name" must be a string, got {json.dumps(name)}')
    return table_density_family(obj["xs"], obj["ys"], name=name)


def _write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def cmd_sweep(args) -> int:
    t = _parse_time(args.t)
    system = _load_system(args.system, t)
    family = _load_family(args.family)
    counts = _parse_pulse_counts(args.n)
    report = convergence_sweep(system, family, counts)
    if args.format == "csv":
        write_report_csv(report, args.out)
    else:
        _write_json(
            {
                "config": {
                    "system": args.system,
                    "family": args.family,
                    "t": [t.real, t.imag],
                },
                "report": report_to_json_dict(report),
            },
            args.out,
        )
    slope = "n/a" if report.fitted_slope is None else repr(report.fitted_slope)
    print(
        "sweep: family=%s N=%d..%d slope=%s final_error=%s -> %s"
        % (
            family.name,
            counts[0],
            counts[-1],
            slope,
            repr(report.errors[-1]),
            args.out,
        )
    )
    return 0


def cmd_schedule(args) -> int:
    family = _load_family(args.family)
    row = family(args.n)
    save_schedule(row, args.out)
    print(
        "schedule: family=%s n=%d tv=%s -> %s"
        % (family.name, args.n, repr(tv_functional(row)), args.out)
    )
    return 0


def cmd_optimize(args) -> int:
    cfg = OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        grid_resolution=args.resolution,
        seed=args.seed,
    )
    if args.mode == "tv":
        result = minimize_tv(args.n, cfg)
    else:
        if not args.system:
            raise ValueError("--mode bound needs --system")
        system = _load_system(args.system, _parse_time(args.t))
        result = minimize_bound_rhs(system, args.n, cfg)
    _write_json(
        {
            "mode": args.mode,
            "n": args.n,
            "seed": args.seed,
            "weights": [float(w) for w in result.minimizer.weights],
            "value": json_number(result.value),
            "iterations_used": result.iterations_used,
            "certified_by_grid": result.certified_by_grid,
            "max_deviation_from_uniform": result.max_deviation_from_uniform,
            "near_uniform": result.near_uniform,
        },
        args.out,
    )
    print(
        "optimize: mode=%s n=%d value=%s certified_by_grid=%s "
        "near_uniform=%s (max deviation %.3g) -> %s"
        % (
            args.mode,
            args.n,
            repr(result.value),
            result.certified_by_grid,
            result.near_uniform,
            result.max_deviation_from_uniform,
            args.out,
        )
    )
    return 0


def cmd_probe(args) -> int:
    family = _load_family(args.family)
    ks = _parse_int_list(args.kgrid, "--kgrid")
    report = cohen_uniformity_probe(family, args.nmax, ks)
    _write_json(
        {
            "family": report.family_name,
            "n_grid": list(report.n_grid),
            "tail_sup": [[k, v] for k, v in report.tail_sup],
            "tv_sequence": [[n, v] for n, v in report.tv_sequence],
            "verdict": report.verdict,
        },
        args.out,
    )
    print(
        "probe: family=%s nmax=%d verdict=%s -> %s"
        % (report.family_name, args.nmax, report.verdict, args.out)
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergopulse",
        description="Pulse-controlled product formulas: convergence sweeps, "
        "schedule generation, schedule optimization, uniformity probes.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="measure control error over a grid of pulse counts"
    )
    sweep.add_argument(
        "--system",
        required=True,
        help="preset name (qubit-z-x) or path to a system JSON file",
    )
    sweep.add_argument("--family", default="uniform", help=FAMILY_HELP)
    sweep.add_argument(
        "--n",
        required=True,
        help="pulse counts: comma list or start:stop:geometric[:ratio]",
    )
    sweep.add_argument("--t", default="1", help="evolution time, re or re,im")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(func=cmd_sweep)

    schedule = sub.add_parser("schedule", help="write one schedule row as JSON")
    schedule.add_argument("--family", required=True, help=FAMILY_HELP)
    schedule.add_argument("--n", required=True, type=int)
    schedule.add_argument("--out", required=True)
    schedule.set_defaults(func=cmd_schedule)

    optimize = sub.add_parser(
        "optimize", help="minimize a schedule objective over the simplex"
    )
    optimize.add_argument("--mode", required=True, choices=("tv", "bound"))
    optimize.add_argument("--n", required=True, type=int)
    optimize.add_argument("--system", default=None, help="needed for --mode bound")
    optimize.add_argument("--t", default="1")
    optimize.add_argument(
        "--restarts",
        type=int,
        default=OptimizerConfig.restarts,
        help="random starts besides the barycenter (bound mode, n ≥ 3)",
    )
    optimize.add_argument(
        "--max-iters",
        dest="max_iters",
        type=int,
        default=OptimizerConfig.max_iters,
        help="descent iterations per start (bound mode, n ≥ 3)",
    )
    optimize.add_argument(
        "--resolution", type=float, default=OptimizerConfig.grid_resolution
    )
    optimize.add_argument(
        "--seed",
        type=int,
        default=OptimizerConfig.seed,
        help="seed of the random starts (bound mode, n ≥ 3)",
    )
    optimize.add_argument("--out", required=True)
    optimize.set_defaults(func=cmd_optimize)

    probe = sub.add_parser(
        "probe", help="collect uniformity evidence for a schedule family"
    )
    probe.add_argument("--family", required=True, help=FAMILY_HELP)
    probe.add_argument("--nmax", required=True, type=int)
    probe.add_argument("--kgrid", default="1,2,4,8")
    probe.add_argument("--out", required=True)
    probe.set_defaults(func=cmd_probe)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser()'s parser, built by the first call in the process
    and reused after it.  Building takes about 1 ms (each add_argument
    makes a HelpFormatter, which reads the terminal size); it waits for
    the first call so that importing the CLI stays cheap."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the allocation: "Unable to allocate ..."
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
