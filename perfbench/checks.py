"""Correctness checks on the CLI's output tables.

Every check here runs outside the timed calls.  `check_call` returns the
number of failed operations in one call's output (one operation per output
row, plus one per optimisation), so a wrong row, a missing row and a crashed
call all count the same way.

Tolerances are each solver's own: 1e-6 relative on inverse solves
(`inv_mi_scalar`, the ergodic anchor) and 1e-4 relative on ray radii.
Quantities derived from them inherit the tolerance scaled by their
sensitivity: an outer-sphere mass p_up = F(s*/gamma) moves by at most B
times the relative error of s*, an inner-sphere mass or a boundary-integrated
p_out by at most 2B times that of the radius it comes from.
"""

import math
from statistics import NormalDist

SOLVE_RTOL = 1e-6
RAY_RTOL = 1e-4
DB_PER_RTOL = 10.0 / math.log(10.0)
GRID_ATOL = 1e-9
# the r2_4 optimum, the sandwich and monotonicity must hold for any seed;
# the MC agreement check may fail a correct program in fewer than 1 run in
# MC_RUN_FAIL_RATE, spread over the points of one curve (Bonferroni)
MC_RUN_FAIL_RATE = 1e-3
# deterministic bias allowed between the cached-MI Monte Carlo count and the
# 513-angle integral: the cache's interpolation error moves the decision of
# the samples nearest the boundary.  Measured with 2e6 samples per point on
# two seeds, every gap below 0.15% was within one standard error.
MC_BIAS_RTOL = 0.002


class Table:
    """A parsed CLI output: provenance header, column names and rows."""

    def __init__(self, meta: dict, columns: list, rows: list):
        self.meta = meta
        self.columns = columns
        self.rows = rows

    def col(self, name: str) -> list:
        j = self.columns.index(name)
        return [r[j] for r in self.rows]


def _value(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(text: str) -> Table:
    """Parse the CSV form written by `outagelab.cli.write_table`."""
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition("=")
            meta[k] = v
        elif columns is None:
            columns = line.split(",")
        elif line:
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValueError(f"row has {len(cells)} cells, header has {len(columns)}")
            rows.append([_value(c) for c in cells])
    if columns is None:
        raise ValueError("no header line")
    return Table(meta, columns, rows)


def gaussian_floor_db(B: int, R: float, field: str) -> float:
    """Least scalar SNR (dB) at which a Gaussian input carries B*R bits."""
    lin = (2.0 ** (2 * B * R) - 1.0) / 2.0 if field == "real" else 2.0 ** (B * R) - 1.0
    return 10.0 * math.log10(lin)


def _close(a, b, rtol, atol=0.0) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isinf(a) and math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * abs(b)


def _num(x) -> bool:
    return isinstance(x, float) and not math.isnan(x)


# ---------------------------------------------------------------------------
# per-kind row checks: each returns one bool per operation
# ---------------------------------------------------------------------------

def _profile_rows_ok(t: Table, e: dict) -> list:
    """gamma_s >= the Gaussian floor, the floor value, saturation flags, grid."""
    floor = gaussian_floor_db(e["B"], e["R"], e["field"])
    tol_db = DB_PER_RTOL * SOLVE_RTOL
    cols = [t.columns.index(c) for c in ("theta_deg", "gamma_s_db", "gamma_floor_db", "saturated")]
    ok = []
    for k, row in enumerate(t.rows):
        th, gs, gf, sat = (row[j] for j in cols)
        good = (
            k < len(e["grid"]) and _num(th) and abs(th - e["grid"][k]) <= GRID_ATOL
            and _num(gf) and abs(gf - floor) <= 1e-6
            and _num(gs) and gs >= floor - tol_db
            and sat in (0.0, 1.0) and (sat == 1.0) == math.isinf(gs)
        )
        ok.append(good)
    return ok


def _optimum_ok(t: Table, e: dict) -> bool:
    """The reported optimum is feasible, no worse than the grid, inside its interval."""
    try:
        th = float(t.meta["theta_opt_deg"])
        gs = float(t.meta["gamma_s_opt_db"])
        lo, hi = (float(x) for x in t.meta["interval_deg"].split(":"))
    except (KeyError, ValueError):
        return False
    tol_db = DB_PER_RTOL * SOLVE_RTOL
    finite = [g for g in t.col("gamma_s_db") if _num(g) and math.isfinite(g)]
    ok = (
        bool(finite)
        and gs >= gaussian_floor_db(e["B"], e["R"], e["field"]) - tol_db
        and gs <= min(finite) + tol_db
        and lo - 1e-6 <= th <= hi + 1e-6
    )
    if "theta_opt_deg" in e:
        centre, half = e["theta_opt_deg"]
        ok = ok and abs(th - centre) <= half
    return ok


def _outage_rows_ok(t: Table, e: dict) -> list:
    """Sandwich p_low <= p_out <= p_up, p_out non-increasing in SNR, grid, method."""
    B = e["B"]
    mc = e["method"] == "mc"
    c = {name: t.col(name) for name in t.columns}
    ok = []
    for k in range(len(t.rows)):
        g, p, lo, hi, up, low, method = (c[n][k] for n in
                                         ("gamma_db", "p_out", "ci_lo", "ci_hi", "p_up", "p_low", "method"))
        if not all(_num(x) for x in (g, p, lo, hi, up, low)):
            ok.append(False)
            continue
        good = k < len(e["grid"]) and abs(g - e["grid"][k]) <= GRID_ATOL
        good = good and 0.0 <= low <= up <= 1.0 and 0.0 <= lo <= p <= hi <= 1.0
        if mc:
            # a Monte Carlo point is judged by its interval
            good = good and method == "mc" and lo <= up and hi >= low
        else:
            rt = 2 * B * RAY_RTOL
            good = (good and method == "boundary_integration" and lo == p == hi
                    and low * (1.0 - 2 * B * SOLVE_RTOL) <= p * (1.0 + rt)
                    and p * (1.0 - rt) <= up * (1.0 + B * SOLVE_RTOL))
        if k > 0 and _num(c["p_out"][k - 1]):
            prev = c["p_out"][k - 1]
            good = good and (p <= prev if mc else p <= prev * (1.0 + 2 * B * RAY_RTOL))
        ok.append(good)
    return ok


def mc_z(n_points: int) -> float:
    """Two-sided z for which n_points tests together fail with MC_RUN_FAIL_RATE."""
    return NormalDist().inv_cdf(1.0 - MC_RUN_FAIL_RATE / (2.0 * n_points))


def wilson(k: int, n: int, z: float) -> tuple:
    p = k / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return centre - half, centre + half


def mc_agrees(t: Table, samples: int, ref_p: list) -> list:
    """Each Monte Carlo point against the 513-angle boundary-integration value."""
    z = mc_z(len(ref_p))
    ok = []
    for k, p in enumerate(t.col("p_out")):
        if k >= len(ref_p) or not _num(p):
            ok.append(False)
            continue
        lo, hi = wilson(round(p * samples), samples, z)
        r = ref_p[k]
        ok.append(lo * (1.0 - MC_BIAS_RTOL) <= r <= hi * (1.0 + MC_BIAS_RTOL))
    return ok


def _boundary_rows_ok(t: Table, e: dict, mi_per_use=None) -> list:
    """Angle grid, saturation flags, and each radius bracketing MI = R.

    `mi_per_use(direction_scaled) -> bits` evaluates the precoded
    constellation's per-use MI at one fading point; when given, every
    finite radius must satisfy MI(rho*(1-2e-4)) < R <= MI(rho*(1+2e-4)).
    """
    ok = []
    for k, row in enumerate(t.rows):
        lam, rho, sat = row
        good = (k < len(e["grid"]) and _num(lam) and abs(lam - e["grid"][k]) <= GRID_ATOL
                and _num(rho) and rho > 0 and sat in (0.0, 1.0) and (sat == 1.0) == math.isinf(rho))
        if good and mi_per_use is not None and math.isfinite(rho):
            # the exact grid angle: the printed one may pass pi/2 in the last digit
            d = (math.cos(e["grid"][k]), math.sin(e["grid"][k]))
            below = mi_per_use([rho * (1 - 2 * RAY_RTOL) * x for x in d])
            above = mi_per_use([rho * (1 + 2 * RAY_RTOL) * x for x in d])
            good = bool(below < e["R"] <= above)
        ok.append(good)
    return ok


# ---------------------------------------------------------------------------
# comparison with values recorded at the default seed
# ---------------------------------------------------------------------------

# column -> (relative tolerance, absolute tolerance); other numeric columns
# must match to the 10 significant digits the CLI prints, text exactly
PRINT_TOL = (1e-9, 0.0)
REF_TOL = {
    "optimize": {"gamma_s_db": (0.0, DB_PER_RTOL * SOLVE_RTOL)},
    "sweep": {"gamma_s_db": (0.0, DB_PER_RTOL * SOLVE_RTOL)},
    "outage": {"p_out": (4 * RAY_RTOL, 1e-15), "ci_lo": (4 * RAY_RTOL, 1e-15),
               "ci_hi": (4 * RAY_RTOL, 1e-15), "p_up": (2 * SOLVE_RTOL, 1e-15),
               "p_low": (4 * SOLVE_RTOL, 1e-15)},
    "boundary": {"rho": (RAY_RTOL, 0.0)},
}
# golden-section refinement stops at 0.05 degrees
OPT_META_TOL = {"theta_opt_deg": 0.05, "gamma_s_opt_db": DB_PER_RTOL * SOLVE_RTOL}


def matches_reference(t: Table, kind: str, ref: dict, mc: bool = False) -> list:
    """One bool per operation: the row agrees with the recorded one.

    Monte Carlo p_out and its interval are left to `mc_agrees`: a change in
    how samples near the threshold are decided may legitimately move a
    few counts.
    """
    tol = REF_TOL[kind]
    skip = {"p_out", "ci_lo", "ci_hi"} if mc else set()
    ref_rows = [[_value(c) for c in line.split(",")] for line in ref["rows"]]
    ok = []
    for k, row in enumerate(t.rows):
        if k >= len(ref_rows) or t.columns != ref["columns"]:
            ok.append(False)
            continue
        good = True
        for name, a, b in zip(t.columns, row, ref_rows[k]):
            if name in skip:
                continue
            if _num(a) and _num(b):
                good = good and _close(a, b, *tol.get(name, PRINT_TOL))
            else:
                good = good and a == b
        ok.append(good)
    if kind == "optimize":
        good = all(
            k in t.meta and abs(float(t.meta[k]) - float(ref["meta"][k])) <= v
            for k, v in OPT_META_TOL.items()
        )
        ok.append(good)
    return ok


def check_call(call, table: "Table | None", ref: "dict | None" = None,
               mc_ref_p: "list | None" = None, mi_per_use=None) -> int:
    """Failed operations in one call's output; a missing table fails them all."""
    expected = call.expected_rows()
    if table is None:
        return expected
    e = call.expect
    kind = call.kind
    try:
        if kind in ("optimize", "sweep"):
            ok = _profile_rows_ok(table, e)
            if kind == "optimize":
                ok.append(_optimum_ok(table, e))
        elif kind == "outage":
            ok = _outage_rows_ok(table, e)
            if e["method"] == "mc":
                ok = [a and b for a, b in zip(ok, mc_agrees(table, e["samples"], mc_ref_p))]
        elif kind == "boundary":
            ok = _boundary_rows_ok(table, e, mi_per_use)
        else:
            raise ValueError(f"unknown output kind {kind!r}")
        if ref is not None:
            same = matches_reference(table, kind, ref, mc=e.get("method") == "mc")
            ok = [a and b for a, b in zip(ok, same)]
    except (ValueError, KeyError, IndexError, TypeError):
        return expected
    if len(ok) != expected:
        return expected
    return ok.count(False)
