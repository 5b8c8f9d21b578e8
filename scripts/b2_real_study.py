#!/usr/bin/env python3
"""Full B=2 real-input study: angle sweeps, outage boundaries, outage curves.

Writes the fig4/fig5/fig6 data bundles under results/ (about a minute on
2 cores; the 16-point boundary traces dominate).
"""

import argparse

from outagelab import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--skip-curves", action="store_true",
                    help="sweeps and boundaries only (seconds instead of minutes)")
    args = ap.parse_args()
    rc = cli.main(["reproduce", "fig4", "--out", args.out])
    rc |= cli.main(["reproduce", "fig5", "--out", args.out])
    if not args.skip_curves:
        rc |= cli.main(["reproduce", "fig6", "--out", args.out])
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
