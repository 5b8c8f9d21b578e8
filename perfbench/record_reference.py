#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the program in src/.

    python3 perfbench/record_reference.py

Records, for the default seed, every output table of every workload (the
values later runs on that seed must reproduce within each solver's
tolerance), and the 513-angle boundary-integration outage of the
`mc-outage` curve, which every Monte Carlo run is checked against.
Takes about a minute.
"""

import json
import math
import tempfile
from pathlib import Path

import run
import workloads
from checks import parse_table

OPT_META = ("theta_opt_deg", "gamma_s_opt_db", "interval_deg")


def record_outputs() -> dict:
    cli = run.import_program()
    outputs = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, make in workloads.WORKLOADS.items():
            calls = make(workloads.DEFAULT_SEED)
            _, outcomes, _ = run.run_study(cli, calls, Path(tmp))
            outputs[name] = {}
            for c, o in zip(calls, outcomes):
                if o["rc"] != 0:
                    raise SystemExit(f"{name}/{c.key} failed: {o}")
                text = o["bytes"].decode()
                t = parse_table(text)
                # rows kept as the CSV lines the CLI wrote
                lines = [ln for ln in text.splitlines() if ln and not ln.startswith("# ")]
                entry = {"columns": t.columns, "rows": lines[1:]}
                if c.kind == "optimize":
                    entry["meta"] = {k: t.meta[k] for k in OPT_META}
                outputs[name][c.key] = entry
    return outputs


def mc_boundary_p_out() -> list:
    from outagelab import (OutageQuery, build_named, outage_from_boundary_2d, rotation2,
                           trace_boundary_2d)

    (call,) = workloads.mc_outage(workloads.DEFAULT_SEED)
    e = call.expect
    square = build_named("r2_4")
    rot = rotation2(math.radians(e["theta_deg"]))
    out = []
    for g_db in e["grid"]:
        q = OutageQuery(square, rot, R=e["R"], gamma=10.0 ** (g_db / 10.0))
        out.append(outage_from_boundary_2d(trace_boundary_2d(q, 513)).p_out)
    return out


def main():
    doc = {
        "seed": workloads.DEFAULT_SEED,
        "outputs": record_outputs(),
        "mc_boundary_p_out": mc_boundary_p_out(),
    }
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
