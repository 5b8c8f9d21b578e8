#!/usr/bin/env python3
"""Self-test of the benchmark harness; exits non-zero on the first failure.

    python3 perfbench/selftest.py

1. BENCHMARK.json names every metric the harness can print, each with a unit.
2. The checker accepts the recorded default-seed outputs of every workload.
3. The checker rejects deliberately corrupted copies of them, which shows
   that each check is live.
Takes a few seconds; runs no study.
"""

import json
import re
import sys

import checks
import run
import tracing
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec_names():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            assert NAME.match(m["name"]), m
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in spec[g]]
    assert len(names) == len(set(names)), "metric names repeat"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    return spec


def test_metric_names():
    spec = spec_names()
    per_layer = set(tracing.layer_metrics([])) | set(run.TRACE_METRICS)
    assert per_layer == {m["name"] for m in spec["per_layer"]}, per_layer ^ {
        m["name"] for m in spec["per_layer"]}
    assert set(run.END_TO_END) == {m["name"] for m in spec["end_to_end"]}


def table_text(ref: dict) -> str:
    lines = [f"# {k}={v}" for k, v in ref.get("meta", {}).items()]
    return "\n".join(lines + [",".join(ref["columns"])] + ref["rows"]) + "\n"


def recorded():
    """(call, reference entry, table) for every call of every workload at the default seed."""
    with open(run.HERE / "reference.json") as fh:
        reference = json.load(fh)
    for name, make in workloads.WORKLOADS.items():
        for call in make(workloads.DEFAULT_SEED):
            ref = reference["outputs"][name][call.key]
            yield call, ref, checks.parse_table(table_text(ref)), reference["mc_boundary_p_out"]


def failures(call, table, ref, mc_ref):
    mi = run.boundary_mi(call) if call.kind == "boundary" else None
    return checks.check_call(call, table, ref, mc_ref, mi)


def corrupt(table, column, row, fn):
    t = checks.Table(dict(table.meta), list(table.columns), [list(r) for r in table.rows])
    j = t.columns.index(column)
    t.rows[row][j] = fn(t.rows[row][j], t.rows[row])
    return t


def test_checker():
    import math

    run.import_program()
    cases = 0
    for call, ref, table, mc_ref in recorded():
        assert failures(call, table, ref, mc_ref) == 0, f"{call.key}: clean output rejected"
        bad = []
        if call.kind in ("optimize", "sweep"):
            floor = checks.gaussian_floor_db(call.expect["B"], call.expect["R"], call.expect["field"])
            bad.append(corrupt(table, "gamma_s_db", 3, lambda v, r: floor - 0.01))
        if call.kind == "optimize" and call.expect["name"] == "r2_4":
            moved = checks.Table(dict(table.meta, theta_opt_deg="31.0", interval_deg="26:32"),
                                 table.columns, table.rows)
            bad.append(moved)
        if call.kind == "outage":
            j = table.columns.index("p_up")
            bad.append(corrupt(table, "p_out", 1, lambda v, r: r[j] * 1.01))
            bad.append(corrupt(table, "p_out", -1, lambda v, r: 0.99 * table.rows[0][1]))
            if call.expect["method"] == "mc":
                bad.append(corrupt(table, "p_out", 7, lambda v, r: v * 1.2))
        if call.kind == "boundary":
            bad.append(corrupt(table, "rho", 6, lambda v, r: v * 1.01))
            bad.append(corrupt(table, "saturated", 2, lambda v, r: 1.0))
        dropped = checks.Table(table.meta, table.columns, table.rows[:-1])
        bad.append(dropped)
        for t in bad:
            # rejected by the checks that hold for any seed, and with the recorded values
            assert failures(call, t, None, mc_ref) > 0, f"{call.key}: corrupted output accepted"
            assert failures(call, t, ref, mc_ref) > 0, f"{call.key}: corrupted output accepted"
            cases += 1
        # the default-seed comparison catches a drift the seed-free checks allow
        if call.kind == "sweep":
            drift = corrupt(table, "gamma_s_db", 2, lambda v, r: v + 1e-3)
            assert failures(call, drift, ref, mc_ref) > 0
            assert failures(call, drift, None, mc_ref) == 0
            cases += 1
    # 11 two-sided tails at z add up to the allowed false-failure rate per run
    tails = 11 * math.erfc(checks.mc_z(11) / math.sqrt(2.0))
    assert math.isclose(tails, checks.MC_RUN_FAIL_RATE, rel_tol=1e-9), tails
    return cases


def main():
    test_metric_names()
    print("PASS metric names and units match BENCHMARK.json")
    n = test_checker()
    print(f"PASS checker accepts recorded outputs and rejects {n} corrupted ones")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
