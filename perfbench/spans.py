"""Span tracer for the traced benchmark run.

The tracer wraps ergopulse functions from outside the package: every
binding of a traced function in any loaded ergopulse module (its home
module, every ``from ... import`` copy, the package namespace) is
replaced by one wrapper, so module-to-module calls, attribute calls such
as ``matrixcore.expm`` and calls inside a module all pass through it.
``uninstall`` puts the original objects back.

A span records a name ("<layer>.<function>"), a start, an end, the index
of the enclosing span (None at top level) and the job id.  Spans live in
flat in-memory lists and are written out once, when the run ends.

Functions called around 10^5-10^6 times per job list (kernels.tv_value,
kernels.simplex_project) only have their calls counted: a span per call
would cost more than the function.  optimizer.simplex_lattice is a
generator; its yielded rows are counted.

A traced name that no longer exists (deleted, renamed or inlined by a
later change) is reported in ``absent`` and contributes 0 calls; it never
stops the run.
"""

from __future__ import annotations

import json
import sys
import time

# layer -> traced function names; "Class.method" names a method.
SPANNED = {
    "cli": ("main",),
    "evolution": (
        "pulse_product",
        "limit_evolution",
        "control_error",
        "schedule_bound_rhs",
        "equidistant_bound_constants",
        "convergence_sweep",
        "defect_coefficient",
        "_schedule_series_terms",
        "write_report_csv",
    ),
    "optimizer": ("minimize_tv", "minimize_bound_rhs", "brute_force_simplex_grid"),
    "ergodic": (
        "spectrum",
        "commutant_project",
        "solve_coboundary",
        "yosida_split",
        "cesaro_mean",
        "weighted_cesaro_mean",
    ),
    "schedules": ("ScheduleFamily.__call__", "cohen_uniformity_probe"),
    "matrixcore": (
        "expm",
        "op_norm",
        "is_unitary",
        "_defect_series_batch",
        "matrix_from_json_dict",
    ),
    "_kernels": (
        "chain_product",
        "conj_weighted_sum",
        "expm_pade13",
        "tv_descent",
        "backend",
        "python_lane",
    ),
}
COUNTED = {"_kernels": ("simplex_project", "tv_value")}
GENERATORS = {"optimizer": ("simplex_lattice",)}

# Span names get a label without the module's leading underscore, so
# "_kernels" spans and metrics read "kernels.<function>".
ALIASES = {"ScheduleFamily.__call__": "family_row"}


def span_name(module: str, func: str) -> str:
    return "%s.%s" % (module.lstrip("_"), ALIASES.get(func, func))


def _dim(a) -> int:
    return int(a.shape[0])


# Extra counters taken from arguments and results.  Each returns
# {counter: increment}; a signature change that breaks one only drops
# that counter (see Tracer._extra).
def _chain_product(args, kwargs, result):
    u, _factors, idx = args[:3]
    steps = int(idx.shape[0])
    return {"steps": steps, "flop": 16.0 * _dim(u) ** 3 * steps}


def _conj_weighted_sum(args, kwargs, result):
    u, _x, w = args[:3]
    terms = int(w.shape[0])
    return {"terms": terms, "flop": 32.0 * _dim(u) ** 3 * terms}


def _tv_descent(args, kwargs, result):
    return {"iters": int(result[2])}


def _pulse_product(args, kwargs, result):
    return {"steps": int(args[1].n)}


def _minimize(config_pos):
    def extract(args, kwargs, result):
        config = kwargs.get("config")
        if config is None and len(args) > config_pos:
            config = args[config_pos]
        out = {"iterations_used": int(result.iterations_used)}
        if config is not None:
            out["restarts"] = int(config.restarts)
        return out

    return extract


# traced name -> (counters the extractor adds, extractor)
EXTRACTORS = {
    "kernels.chain_product": (("steps", "flop"), _chain_product),
    "kernels.conj_weighted_sum": (("terms", "flop"), _conj_weighted_sum),
    "kernels.tv_descent": (("iters",), _tv_descent),
    "evolution.pulse_product": (("steps",), _pulse_product),
    "optimizer.minimize_tv": (("iterations_used", "restarts"), _minimize(1)),
    "optimizer.minimize_bound_rhs": (("iterations_used", "restarts"), _minimize(2)),
}


class Tracer:
    """Installs wrappers, stores spans and counters, derives metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int | None] = []
        self.span_job: list[int] = []
        self.counters: dict[str, float] = {}
        self.current: int | None = None
        self.job = 0
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [
            m
            for k, m in sorted(sys.modules.items())
            if m is not None and (k == prefix or k.startswith(prefix + "."))
        ]
        self.absent = []
        for kind, table in (
            ("span", SPANNED),
            ("count", COUNTED),
            ("generator", GENERATORS),
        ):
            for module, funcs in table.items():
                mod = sys.modules.get("%s.%s" % (prefix, module))
                for func in funcs:
                    name = span_name(module, func)
                    if mod is None:
                        self.absent.append(name)
                        continue
                    if "." in func:
                        self._install_method(mod, func, name)
                    else:
                        self._install_function(mod, func, name, kind, modules)

    def _install_function(self, mod, func, name, kind, modules) -> None:
        original = mod.__dict__.get(func)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._wrap(original, name, kind)
        for m in modules:
            for key, value in list(m.__dict__.items()):
                if value is original:
                    self._restore.append((m, key, original))
                    setattr(m, key, wrapper)

    def _install_method(self, mod, func, name) -> None:
        cls_name, meth = func.split(".")
        cls = getattr(mod, cls_name, None)
        original = cls.__dict__.get(meth) if cls is not None else None
        if not callable(original):
            self.absent.append(name)
            return
        self._restore.append((cls, meth, original))
        setattr(cls, meth, self._wrap(original, name, "span"))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name, kind):
        counters = self.counters
        calls_key = name + ".calls"
        counters.setdefault(calls_key, 0)

        if kind == "count":

            def counted(*args, **kwargs):
                counters[calls_key] += 1
                return fn(*args, **kwargs)

            return counted

        if kind == "generator":
            items_key = name + ".items"
            counters.setdefault(items_key, 0)

            def generator(*args, **kwargs):
                counters[calls_key] += 1
                for item in fn(*args, **kwargs):
                    counters[items_key] += 1
                    yield item

            return generator

        name_id = self._name_id(name)
        extract = EXTRACTORS.get(name, (None, None))[1]
        clock = time.perf_counter
        starts, ends = self.span_start, self.span_end
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        tracer = self

        def spanned(*args, **kwargs):
            parent = tracer.current
            idx = len(starts)
            names.append(name_id)
            parents.append(parent)
            jobs.append(tracer.job)
            ends.append(0.0)
            counters[calls_key] += 1
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parent
            if extract is not None:
                tracer._extra(name, extract, args, kwargs, result)
            return result

        return spanned

    def _extra(self, name, extract, args, kwargs, result) -> None:
        try:
            values = extract(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            self.counters[name + ".extract_failed"] = 1
            return
        for key, inc in values.items():
            full = "%s.%s" % (name, key)
            self.counters[full] = self.counters.get(full, 0) + inc

    # -- passes and metrics -------------------------------------------

    def mark(self) -> tuple[int, dict[str, float]]:
        """Position to measure one pass from: span count and counters."""
        return len(self.span_start), dict(self.counters)

    def pass_metrics(self, mark, wall_s: float) -> dict[str, float]:
        """Per-layer figures for the spans and counts since mark."""
        first, before = mark
        last = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(first, last)]
        child = [0.0] * (last - first)
        self_s: dict[str, float] = {}
        child_of: dict[tuple[str, str], int] = {}
        top = 0.0
        for i in range(first, last):
            p = self.span_parent[i]
            if p is None or p < first:
                top += dur[i - first]
            else:
                child[p - first] += dur[i - first]
                key = (self.names[self.span_name[p]], self.names[self.span_name[i]])
                child_of[key] = child_of.get(key, 0) + 1
        for i in range(first, last):
            name = self.names[self.span_name[i]]
            self_s[name] = self_s.get(name, 0.0) + dur[i - first] - child[i - first]

        out: dict[str, float] = {}
        for key, value in self.counters.items():
            out[key] = value - before.get(key, 0)
        for name in self_s:
            out[name + ".self_s"] = self_s[name]
        for table in (SPANNED, COUNTED, GENERATORS):
            for module, funcs in table.items():
                for func in funcs:
                    name = span_name(module, func)
                    out.setdefault(name + ".calls", 0)
                    out.setdefault(name + ".self_s", 0.0)
        for name, (keys, _extract) in EXTRACTORS.items():
            for key in keys:
                out.setdefault("%s.%s" % (name, key), 0)

        def ratio(num, den):
            return num / den if den else 0.0

        expm_calls = out["matrixcore.expm.calls"]
        out["matrixcore.expm.pade_frac"] = ratio(
            child_of.get(("matrixcore.expm", "kernels.expm_pade13"), 0), expm_calls
        )
        for kernel in ("kernels.chain_product", "kernels.conj_weighted_sum"):
            out[kernel + ".gflops"] = ratio(
                out.get(kernel + ".flop", 0.0) / 1e9, out[kernel + ".self_s"]
            )
        steps = out.get("evolution.pulse_product.steps", 0)
        distinct = child_of.get(("evolution.pulse_product", "matrixcore.expm"), 0)
        out["evolution.pulse_product.distinct_weights"] = distinct
        out["evolution.pulse_product.distinct_ratio"] = ratio(distinct, steps)
        out["optimizer.objective_evals"] = sum(
            n
            for (parent, name), n in child_of.items()
            if name == "evolution._schedule_series_terms"
            and parent.startswith("optimizer.")
        )
        out["optimizer.lattice_points"] = out.get("optimizer.simplex_lattice.items", 0)
        out["optimizer.iterations_used"] = out.get(
            "optimizer.minimize_tv.iterations_used", 0
        ) + out.get("optimizer.minimize_bound_rhs.iterations_used", 0)
        out["optimizer.restarts"] = out.get(
            "optimizer.minimize_tv.restarts", 0
        ) + out.get("optimizer.minimize_bound_rhs.restarts", 0)
        out["trace.top_span_coverage"] = ratio(top, wall_s)
        return out

    def truncate(self, mark) -> None:
        """Forget the spans recorded since mark (counters are kept)."""
        first = mark[0]
        for spans in (
            self.span_name,
            self.span_start,
            self.span_end,
            self.span_parent,
            self.span_job,
        ):
            del spans[first:]

    def write(self, path: str, first: int, last: int) -> int:
        """Write spans [first, last) as JSON lines; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(first, last):
                parent = self.span_parent[i]
                fh.write(
                    json.dumps(
                        {
                            "id": i - first,
                            "name": self.names[self.span_name[i]],
                            "start": self.span_start[i],
                            "end": self.span_end[i],
                            "parent": None if parent is None else parent - first,
                            "job": self.span_job[i],
                        }
                    )
                )
                fh.write("\n")
        return last - first
