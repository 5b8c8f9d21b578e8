"""The benchmark's tracer must keep working against the library.

`perfbench/tracing.py` wraps public functions by their positional
signatures; a changed signature makes every traced call fail.  This runs
one traced outage curve and checks that the geometry is solved once, one
traced `anchors` call, whose anchor solve the tracer must count, one
traced Monte Carlo curve, whose cache attributes the tracer reads, one
traced complex sweep, whose angles the tracer must see solved in one
lock-step solve, one traced complex boundary with a real base, whose
chain-rule choice the tracer reads from the config, and one traced
`optimize`, whose golden-section probes the tracer must count.
"""

import sys
from pathlib import Path

from outagelab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced(argv):
    """Run one CLI call under perfbench's tracer; return its layer metrics."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["cli.calls"] == 1
    return metrics


def test_traced_outage_call(tmp_path):
    metrics = traced(["outage", "--constellation", "r2_4", "--R", "0.9", "--theta-deg", "27",
                      "--method", "boundary", "--angles", "65", "--gamma-db", "0:20:5",
                      "--out", str(tmp_path / "o.csv")])
    assert metrics["outage.trace_calls"] == 1
    assert metrics["outage.anchor_calls"] == 1


def test_traced_anchors_call(tmp_path):
    # `anchors` solves a geometry; the tracer counts its anchor solve
    metrics = traced(["anchors", "--constellation", "r2_4", "--R", "0.9", "--theta-deg", "27",
                      "--gamma-db", "8", "--out", str(tmp_path / "a.csv")])
    assert metrics["outage.anchor_calls"] == 1
    assert metrics["outage.trace_calls"] == 0


def test_traced_mc_outage_call(tmp_path):
    metrics = traced(["outage", "--constellation", "r2_4", "--R", "0.9", "--theta-deg", "27",
                      "--method", "mc", "--mc-samples", "2000", "--gamma-db", "0:20:2",
                      "--out", str(tmp_path / "m.csv")])
    assert metrics["outage.cache_builds"] == 1
    assert metrics["outage.cache_grid_points"] == 33 * 33
    assert metrics["outage.cache_direct_rows"] > 0


def test_traced_complex_sweep_call(tmp_path):
    metrics = traced(["sweep", "--constellation", "c2_16", "--R", "1.8",
                      "--theta-grid", "10:20:10", "--out", str(tmp_path / "s.csv")])
    # both angles project to a 4-point real base: one batched solve, no
    # per-angle inverse solves or one-row scalar evaluations
    assert metrics["search.solves"] == 1
    assert metrics["search.f_evals_per_solve"] > 0
    assert metrics["optimizer.gamma_s_evals"] == 0
    assert metrics["mutual_info.inv_solves"] == 0
    assert metrics["mutual_info.scalar_evals"] == 0


def test_traced_complex_boundary_call(tmp_path):
    # a complex input with a real base: the tracer reads cfg.complex_chain
    metrics = traced(["boundary", "--constellation", "c2_256", "--R", "3", "--theta-deg", "27",
                      "--gamma-db", "16.5", "--angles", "9", "--out", str(tmp_path / "b.csv")])
    assert metrics["outage.trace_calls"] == 1
    assert metrics["mutual_info.mc_fallback_calls"] == 0


def test_traced_optimize_call(tmp_path):
    # the golden-section refinement: the tracer counts golden_min's f
    metrics = traced(["optimize", "--constellation", "r2_4", "--R", "0.9",
                      "--out", str(tmp_path / "o.csv")])
    assert metrics["search.golden_f_evals"] > 0
