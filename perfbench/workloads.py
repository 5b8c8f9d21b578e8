"""Benchmark workloads: each turns a seed into a list of `outagelab` CLI calls.

A workload is a study: the CLI subcommands a user would run, one after
another, to answer one question.  The seed drives the Rayleigh draws
(`--seed`) and, for the deterministic studies, a precoder angle and an
SNR-grid offset inside narrow fixed ranges, so that every seed does about
the same amount of work while a result can be re-checked on unseen inputs.
Sizes are cut from the full studies so that one study takes a few seconds
and several repetitions fit in one measured run (see NOTES.md).
"""

import math
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Call:
    """One CLI invocation plus what the checker needs to judge its output.

    `kind` names the output table: "optimize", "sweep", "outage" or
    "boundary".  `expect` holds the inputs the checker compares against:
    rate, block count, field, the expected grid, and so on.
    """

    key: str
    argv: tuple
    kind: str
    expect: dict = field(default_factory=dict)

    def expected_rows(self) -> int:
        """Operations this call attempts: one per output row, plus one per optimisation."""
        n = len(self.expect["grid"])
        return n + 1 if self.kind == "optimize" else n


def _grid(a: float, b: float, step: float) -> list:
    n = int(math.floor((b - a) / step + 0.5)) + 1
    return [a + k * step for k in range(n)]


def _range_arg(a: float, b: float, step: float) -> str:
    return f"{a:g}:{b:g}:{step:g}"


def _optimize(name: str, B: int, R: float, field_: str) -> Call:
    hi = 90.0 if B == 2 else 120.0
    expect = {"name": name, "B": B, "R": R, "field": field_, "grid": _grid(0.0, hi, 0.5)}
    if name == "r2_4":
        expect["theta_opt_deg"] = (27.0, 2.0)
    argv = ("optimize", "--constellation", name, "--R", f"{R:g}")
    return Call(f"optimize_{name}", argv, "optimize", expect)


def angle_opt(seed: int) -> list:
    rng = random.Random(seed)
    off = round(rng.uniform(0.0, 5.0), 3)
    grid = _grid(off, off + 40.0, 10.0)
    calls = [
        _optimize("r2_4", 2, 0.9, "real"),
        _optimize("r2_8", 2, 0.9, "real"),
        _optimize("r2_16", 2, 0.9, "real"),
        _optimize("r3_8", 3, 0.9, "real"),
    ]
    argv = ("sweep", "--constellation", "c2_16", "--R", "1.8",
            "--theta-grid", _range_arg(off, off + 40.0, 10.0))
    calls.append(Call("sweep_c2_16", argv, "sweep",
                      {"name": "c2_16", "B": 2, "R": 1.8, "field": "complex", "grid": grid}))
    return calls


def _outage(key, theta, R, g0, g1, step, method, extra=(), **expect) -> Call:
    argv = ("outage", "--constellation", "r2_4", "--R", f"{R:g}", "--theta-deg", f"{theta:g}",
            "--method", method, "--gamma-db", _range_arg(g0, g1, step)) + tuple(extra)
    expect.update(B=2, R=R, theta_deg=theta, method=method, grid=_grid(g0, g1, step))
    return Call(key, argv, "outage", expect)


LARGE_ANGLES = 9


def _large_alphabet(rng) -> Call:
    theta = round(rng.uniform(20.0, 35.0), 3)
    gamma_db = round(16.0 + rng.uniform(0.0, 1.0), 3)
    argv = ("boundary", "--constellation", "c2_256", "--R", "3", "--theta-deg", f"{theta:g}",
            "--gamma-db", f"{gamma_db:g}", "--angles", str(LARGE_ANGLES))
    lambdas = [0.5 * math.pi * k / (LARGE_ANGLES - 1) for k in range(LARGE_ANGLES)]
    expect = {"name": "c2_256", "B": 2, "R": 3.0, "theta_deg": theta, "gamma_db": gamma_db,
              "grid": lambdas}
    return Call("boundary_c2_256", argv, "boundary", expect)


def outage_curve(seed: int) -> list:
    rng = random.Random(seed)
    theta = round(27.0 + rng.uniform(-1.0, 1.0), 3)
    g0 = round(rng.uniform(0.0, 1.0), 3)
    extra = ("--angles", "65")
    # theta = 0 keeps the saturated rays along both axes; the c2_256 trace is
    # the one place where alphabet size, not the MI kernel, sets the time
    return [
        _outage("outage_t0", 0.0, 0.9, g0, g0 + 20.0, 5.0, "boundary", extra),
        _outage("outage_topt", theta, 0.9, g0, g0 + 20.0, 5.0, "boundary", extra),
        _large_alphabet(rng),
    ]


MC_SAMPLES = 100_000


def mc_outage(seed: int) -> list:
    # angle and SNR grid stay fixed so the 513-angle boundary-integration
    # reference in reference.json applies to every seed
    extra = ("--mc-samples", str(MC_SAMPLES), "--seed", str(seed))
    return [_outage("outage_mc", 27.0, 0.9, 0.0, 20.0, 2.0, "mc", extra, samples=MC_SAMPLES)]


WORKLOADS = {
    "angle-opt": angle_opt,
    "outage-curve": outage_curve,
    "mc-outage": mc_outage,
}
