#!/usr/bin/env python3
"""Show the outage sandwich p_low <= p_out <= p_up across an SNR grid.

Prints one line per SNR for the rotated 4-point planar set and writes a
CSV; the upper/lower columns are the chi-square masses of the outer and
inner hyperspheres through the axis and ergodic anchors.
"""

import argparse
import math

from outagelab import build_named
from outagelab.cli import write_table
from outagelab.mutual_info import EngineConfig
from outagelab.outage import OutageGeometry
from outagelab.precoders import rotation2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta-deg", type=float, default=27.0)
    ap.add_argument("--R", type=float, default=0.9)
    ap.add_argument("--gamma-db", default="0:20:2")
    ap.add_argument("--out", default="results/bound_sandwich.csv")
    args = ap.parse_args(argv)

    cfg = EngineConfig()
    # anchors and boundary are SNR-free: solved once, rescaled per SNR point
    geom = OutageGeometry.solve(build_named("r2_4"), rotation2(math.radians(args.theta_deg)),
                                args.R, cfg, n_angles=257)
    a, b, step = (float(x) for x in args.gamma_db.split(":"))
    rows = []
    gdb = a
    while gdb <= b + step / 2:
        gamma = 10 ** (gdb / 10)
        p_up, p_low = geom.bounds(gamma)
        p_out = geom.outage(gamma).p_out
        ok = "ok" if p_low <= p_out <= p_up else "VIOLATED"
        print(f"gamma={gdb:5.1f} dB  p_low={p_low:.3e}  p_out={p_out:.3e}  p_up={p_up:.3e}  {ok}")
        rows.append([gdb, p_out, p_up, p_low, ok])
        gdb += step
    write_table(
        args.out,
        ["gamma_db", "p_out", "p_up", "p_low", "sandwich"],
        rows,
        {"theta_deg": args.theta_deg, "R": args.R},
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
