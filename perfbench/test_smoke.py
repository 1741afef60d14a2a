"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench"""

import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ergopulse  # noqa: E402
import spans  # noqa: E402


def test_smoke_mode_reports_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().splitlines()[-1].startswith("smoke: every workload ran")


def test_missing_traced_name_is_absent_with_zero_calls(monkeypatch):
    kernels = sys.modules["ergopulse._kernels"]
    monkeypatch.delattr(kernels, "tv_value")
    original_expm = ergopulse.matrixcore.expm
    u = np.diag([1.0, 1.0j])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    untraced = ergopulse.cesaro_mean(u, x, 64)

    tracer = spans.Tracer()
    tracer.install(ergopulse)
    try:
        assert ergopulse.matrixcore.expm is not original_expm
        mark = tracer.mark()
        traced = ergopulse.cesaro_mean(u, x, 64)
        metrics = tracer.pass_metrics(mark, 1.0)
    finally:
        tracer.uninstall()

    assert ergopulse.matrixcore.expm is original_expm
    assert "kernels.tv_value" in tracer.absent
    assert metrics["kernels.tv_value.calls"] == 0
    assert metrics["kernels.conj_weighted_sum.calls"] == 1
    assert metrics["kernels.conj_weighted_sum.terms"] == 64
    assert np.array_equal(traced, untraced)
