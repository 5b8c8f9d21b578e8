"""Command-line experiment runner.

Subcommands mirror the library operations: mi, anchors, outage, boundary,
sweep, optimize, expand, plus `reproduce figN` for the canned study
configurations.  Angles are taken in degrees and SNRs in dB on the command
line; outputs are CSV (default) or JSON with a provenance header (tool
version, config hash, seed, engine settings) so identical invocations
produce identical bytes.

Exit codes: 0 success, 2 configuration error, 3 infeasible rate /
projection saturation (diversity loss).
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, constellations, precoders
from .mutual_info import (
    ChannelSample,
    EngineConfig,
    SaturationError,
    mi_gaussian,
    mi_per_use,
)
from .optimizer import default_grid, expansion_compare, gamma_s_at, optimize, sweep
from .outage import (
    MC_MIN_SAMPLES,
    OutageGeometry,
    OutageQuery,
    OutageResult,
    at_alphabet_limit,
    check_integration_angles,
    ergodic_snr,
    mc_config,
    outage_mc,
    trace_boundary_2d,
)


class ConfigError(ValueError):
    pass


def db_to_linear(db: float) -> float:
    """Linear SNR of `db`; ConfigError unless it is finite and positive."""
    try:
        x = 10.0 ** (db / 10.0)
    except OverflowError:
        x = math.inf
    if not 0.0 < x < math.inf:
        raise ConfigError(f"{db:g} dB is outside the range of a finite positive SNR")
    return x


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0 and math.isfinite(x) else math.inf


def parse_range(text: str) -> list:
    """Either a single float or 'a:b:step' (inclusive of b within half a step)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be a:b:step, got {text!r}")
        a, b, step = (float(p) for p in parts)
        if step <= 0 or b < a:
            raise ConfigError(f"bad range {text!r}")
        return list(np.arange(a, b + step / 2, step))
    return [float(text)]


def engine_from_args(args) -> EngineConfig:
    raw = os.environ.get("OUTAGELAB_BUDGET_OPS", "1000000000")
    try:
        budget = int(raw)
    except ValueError:
        raise ConfigError(f"OUTAGELAB_BUDGET_OPS takes an integer, got {raw!r}") from None
    return EngineConfig(
        engine=args.engine,
        gh_order=args.gh_order,
        mc_samples=args.mc_samples,
        seed=args.seed,
        budget_ops=budget,
    )


def load_constellation(args) -> constellations.Constellation:
    if args.constellation_file:
        return constellations.load_file(args.constellation_file)
    if not args.constellation:
        raise ConfigError("one of --constellation or --constellation-file is required")
    try:
        return constellations.build_named(args.constellation)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def build_precoder(args, B: int) -> precoders.Precoder:
    if args.phases_deg is None:
        return precoders.rotation(B, math.radians(args.theta_deg))
    phases = [math.radians(float(x)) for x in args.phases_deg.split(",")]
    return precoders.circulant_from_eigenphases(B, phases)


# what a closed-form Gaussian input does not read: it runs no engine and has no precoder
GAUSSIAN_UNREAD = ("engine", "gh_order", "mc_samples", "theta_deg", "phases_deg")


def reject_unread(args, dests, reader: str):
    """Raise ConfigError (exit 2) naming each flag in `dests` set away from
    its default, which `reader`, the chosen input, does not read."""
    unread = ["--" + d.replace("_", "-") for d in dests if getattr(args, d) != args.parser.get_default(d)]
    if unread:
        raise ConfigError(f"{reader} does not read {', '.join(unread)}")


def resolve_rate(args, c) -> float:
    if args.R is not None:
        return args.R
    if args.Rc is not None:
        return args.Rc * c.m / c.B
    raise ConfigError("give --R or --Rc")


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------

CURVE_COLUMNS = ["gamma_db", "p_out", "ci_lo", "ci_hi", "p_up", "p_low", "method", "seed"]
BOUNDS_ONLY = OutageResult("", ("", ""), "bounds_only")  # a curve row with the bounds alone
SWEEP_COLUMNS = ["theta_deg", "gamma_s_db", "gamma_floor_db", "d_pmin", "saturated"]


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return f"{v:.10g}"
    return str(v)


def write_table(path, columns, rows, meta: dict, fmt: str = "csv"):
    meta = {"tool": f"outagelab {__version__}", "config": _config_hash(meta), **meta}
    if fmt == "json":
        doc = {
            "meta": {k: _fmt(v) if isinstance(v, float) else v for k, v in meta.items()},
            "columns": columns,
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        text = json.dumps(doc, indent=1) + "\n"
    else:
        lines = [f"# {k}={v}" for k, v in meta.items()]
        lines.append(",".join(columns))
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_mi(args) -> int:
    cfg = engine_from_args(args)
    gamma = db_to_linear(args.gamma_db)
    alpha = np.array([float(x) for x in args.alpha.split(",")])
    if args.gaussian:
        reject_unread(args, GAUSSIAN_UNREAD, "--gaussian")
        est = mi_gaussian(ChannelSample(alpha, gamma))
    else:
        c = load_constellation(args)
        p = build_precoder(args, c.B)
        omega_x = precoders.apply(p, c)
        est = mi_per_use(omega_x, ChannelSample(alpha, gamma), cfg)
    meta = {"seed": args.seed, "engine": est.method, "gamma_db": args.gamma_db}
    write_table(
        args.out,
        ["alpha", "gamma_db", "mi_bpcu", "std_error", "method"],
        [[args.alpha.replace(",", ";"), args.gamma_db, est.value, est.std_error, est.method]],
        meta,
        args.format,
    )
    return 0


def cmd_anchors(args) -> int:
    cfg = engine_from_args(args)
    gamma = db_to_linear(args.gamma_db)
    if args.gaussian:
        reject_unread(args, GAUSSIAN_UNREAD, "--gaussian")
        if args.B is None or args.R is None:
            raise ConfigError("--gaussian anchors need --B and --R")
        geom, engine = OutageGeometry.gaussian(args.B, args.R), "closed_form"
    else:
        reject_unread(args, ["B"], "a constellation input")
        c = load_constellation(args)
        geom = OutageGeometry.solve(c, build_precoder(args, c.B), resolve_rate(args, c), cfg)
        engine = cfg.engine
    an = geom.anchors(gamma)
    p_up, p_low = geom.bounds(gamma)
    meta = {"seed": args.seed, "engine": engine, "gamma_db": args.gamma_db}
    write_table(
        args.out,
        ["alpha_o", "alpha_o_exists", "alpha_e", "alpha_e_exists", "p_up", "p_low", "note"],
        [[an.alpha_o, int(an.alpha_o_exists), an.alpha_e, int(an.alpha_e_exists), p_up, p_low, an.note]],
        meta,
        args.format,
    )
    return 0


def _curve_rows(geom, gammas_db, seed, outage_curve=None) -> list:
    """Outage-curve rows from a geometry solved once, with one `bounds` call.

    `outage_curve` maps the array of SNRs to one OutageResult each (default:
    the geometry's `outage`, its boundary integrated at every SNR at once).
    """
    gammas = np.array([db_to_linear(gdb) for gdb in gammas_db])
    results = (outage_curve or geom.outage)(gammas)
    return [[gdb, res.p_out, res.ci95[0], res.ci95[1], p_up, p_low, res.method, seed]
            for gdb, res, p_up, p_low in zip(gammas_db, results, *geom.bounds(gammas))]


def _curve_method(c, R, method) -> str:
    """`limit` (p_out = 1) at or above m/B, else `method`; `auto` is the boundary for B = 2, else MC."""
    if at_alphabet_limit(c, R):
        return "limit"
    if method == "auto":
        return "boundary" if c.B == 2 else "mc"
    return method


def _outage_curve(c, p, R, gammas_db, cfg, seed, method, angles=257, mc_samples=200_000) -> list:
    """Outage-curve rows on one geometry by `method`, as `_curve_method` resolves
    it; its rules are checked before any solve."""
    if method == "boundary":
        check_integration_angles(angles)
    if method == "mc" and mc_samples < MC_MIN_SAMPLES:
        raise ConfigError(f"a Monte Carlo outage curve needs --mc-samples >= {MC_MIN_SAMPLES}")
    geom = OutageGeometry.solve(c, p, R, cfg, n_angles=angles if method == "boundary" else None)
    if method == "limit":
        warnings.warn(f"R={R} is at or above the alphabet limit m/B={c.m / c.B:g}; p_out=1")
        limit = OutageResult(1.0, (1.0, 1.0), "limit")
        return _curve_rows(geom, gammas_db, seed, lambda gammas: [limit] * len(gammas))
    if method == "boundary":
        return _curve_rows(geom, gammas_db, seed)
    omega_x = precoders.apply(p, c)  # one precoded set for the cache and the whole curve
    return _curve_rows(
        geom, gammas_db, seed, lambda gammas: outage_mc(omega_x, mc_samples, R, gammas, seed=seed, cfg=cfg))


def cmd_outage(args) -> int:
    cfg = engine_from_args(args)
    gammas_db = parse_range(args.gamma_db)
    if args.gaussian:
        reject_unread(args, GAUSSIAN_UNREAD + ("method",), "--gaussian")
        if args.R is None:
            raise ConfigError("--gaussian outage needs --R")
        rows = _curve_rows(OutageGeometry.gaussian(2, args.R, args.angles), gammas_db, args.seed)
        meta = {"seed": args.seed, "engine": "closed_form", "R": args.R}
    else:
        c = load_constellation(args)
        p = build_precoder(args, c.B)
        R = resolve_rate(args, c)
        method = _curve_method(c, R, args.method)
        unread = {"limit": ["angles", "method"], "mc": ["angles"]}.get(method, [])
        reject_unread(args, unread, f"the {method} method")
        rows = _outage_curve(c, p, R, gammas_db, cfg, args.seed, method, args.angles, args.mc_samples)
        meta = {"seed": args.seed, "engine": cfg.engine, "gh_order": cfg.gh_order}
        if method == "mc":  # the order the Monte Carlo rows were decided at
            meta["mc_gh_order"] = mc_config(c.B, cfg).gh_order
        meta.update(mc_samples=cfg.mc_samples, R=R)
    write_table(args.out, CURVE_COLUMNS, rows, meta, args.format)
    return 0


def _trace_rows(trace) -> list:
    return [[lam, rho, int(sat)] for lam, rho, sat in zip(trace.lambdas, trace.rhos, trace.saturated)]


def cmd_boundary(args) -> int:
    cfg = engine_from_args(args)
    gamma = db_to_linear(args.gamma_db)
    if args.gaussian:
        reject_unread(args, GAUSSIAN_UNREAD, "--gaussian")
        if args.R is None:
            raise ConfigError("--gaussian boundary needs --R")
        trace, engine = OutageGeometry.gaussian(2, args.R, args.angles).trace(gamma), "closed_form"
    else:
        c = load_constellation(args)
        p = build_precoder(args, c.B)
        q = OutageQuery(c, p, R=resolve_rate(args, c), gamma=gamma)
        trace, engine = trace_boundary_2d(q, args.angles, cfg), cfg.engine
    meta = {"seed": args.seed, "engine": engine, "gamma_db": args.gamma_db, "R": trace.R}
    write_table(args.out, ["lambda_rad", "rho", "saturated"], _trace_rows(trace), meta, args.format)
    return 0


def _sweep_rows(profile):
    rows = []
    for k in range(len(profile.grid)):
        gs = profile.gamma_s[k]
        rows.append(
            [
                profile.grid_deg[k],
                linear_to_db(gs),
                linear_to_db(profile.gamma_floor),
                profile.d_pmin[k] if profile.d_pmin is not None else "",
                int(not math.isfinite(gs)),
            ]
        )
    return rows


def cmd_sweep(args) -> int:
    cfg = engine_from_args(args)
    c = load_constellation(args)
    R = resolve_rate(args, c)
    grid = np.radians(parse_range(args.theta_grid)) if args.theta_grid else default_grid(c.B)
    profile = sweep(c, R, grid=grid, cfg=cfg, include_product_distance=args.product_distance)
    meta = {"seed": args.seed, "engine": cfg.engine, "gh_order": cfg.gh_order, "R": R}
    write_table(args.out, SWEEP_COLUMNS, _sweep_rows(profile), meta, args.format)
    return 0


def cmd_optimize(args) -> int:
    cfg = engine_from_args(args)
    c = load_constellation(args)
    R = resolve_rate(args, c)
    res = optimize(c, R, cfg)
    meta = {
        "seed": args.seed,
        "engine": cfg.engine,
        "gh_order": cfg.gh_order,
        "R": R,
        "theta_opt_deg": f"{math.degrees(res.theta_opt):.6f}",
        "gamma_s_opt_db": f"{linear_to_db(res.gamma_s_opt):.6f}",
        "interval_deg": f"{res.near_optimal_interval[0]:.6f}:{res.near_optimal_interval[1]:.6f}",
    }
    write_table(args.out, SWEEP_COLUMNS, _sweep_rows(res.profile), meta, args.format)
    print(
        f"theta_opt_deg={math.degrees(res.theta_opt):.4f} "
        f"gamma_s_db={linear_to_db(res.gamma_s_opt):.4f} "
        f"interval_deg=[{res.near_optimal_interval[0]:.2f}, {res.near_optimal_interval[1]:.2f}]"
    )
    return 0


def cmd_expand(args) -> int:
    cfg = engine_from_args(args)
    if args.R is None:
        raise ConfigError("expand needs --R")
    cands = []
    for item in args.candidates.split(","):
        name, rc = item.split(":")
        cands.append((constellations.build_named(name.strip()), float(rc)))
    R = args.R
    rows = expansion_compare(cands, R, cfg)
    meta = {"seed": args.seed, "engine": cfg.engine, "R": R}
    write_table(
        args.out,
        ["name", "m", "Rc", "theta_opt_deg", "gamma_s_opt_db", "gap_db", "ergodic_snr_db", "ergodic_gap_db"],
        [
            [r.name, r.m, r.Rc, r.theta_opt_deg, linear_to_db(r.gamma_s_opt),
             r.gap_db, linear_to_db(r.ergodic_snr), r.ergodic_gap_db]
            for r in rows
        ],
        meta,
        args.format,
    )
    return 0


# ---------------------------------------------------------------------------
# Canned study recipes
# ---------------------------------------------------------------------------

OPT = "opt"  # a step angle: the target's memoised optimum
GAMMAS_DB = list(np.arange(0.0, 20.5, 2.0))

# Each target runs its steps (kind, constellation, R, theta_deg | OPT, options)
# in order, each writing `{target}_{stem}.{format}`.  Kinds: `sweep` of gamma_s
# (options step_deg, gh_order, dpmin); `boundary` at gamma_db on --angles rays;
# `curve` over gammas_db (default GAMMAS_DB) on 257 boundary rays for B=2, else
# 200k Monte Carlo samples; `bounds` only, with the angle-free ergodic SNR solved
# on the unprecoded set at gh_order <= 12 (keeps r3_64 to seconds); `gaussian`,
# the B=2 Gaussian-input curve.  An OPT angle is round(degrees(theta_opt), 2) of
# `optimize` at the step's step_deg and gh_order, run once per target; a sweep
# at OPT writes that optimiser's coarse profile.
RECIPES = {
    "fig4": [
        ("sweep", "r2_4", 0.9, None, {}),
        ("sweep", "r2_8", 0.9, None, {"dpmin": True}),
        ("sweep", "r2_16", 0.9, None, {}),
    ],
    "fig5": [("boundary", "r2_4", 0.9, theta, {"gamma_db": 8.0}) for theta in (0.0, 10.0, 27.0)],
    "fig6": [
        ("curve", "r2_4", 0.9, 0.0, {}),
        ("curve", "r2_4", 0.9, 27.0, {}),
        ("curve", "r2_8", 0.9, 0.0, {}),
        ("curve", "r2_8", 0.9, OPT, {}),
        ("curve", "r2_16", 0.9, 0.0, {}),
        ("curve", "r2_16", 0.9, OPT, {}),
        ("gaussian", None, 0.9, None, {}),
    ],
    "fig7": [
        ("sweep", "c2_16", 1.8, None, {}),
        ("sweep", "c2_64", 1.8, None, {"step_deg": 1.0, "gh_order": 16}),
    ],
    "fig8": [
        ("curve", "c2_16", 1.8, 0.0, {}),
        ("curve", "c2_16", 1.8, OPT, {}),
        ("bounds", "c2_64", 1.8, OPT, {"step_deg": 1.0, "gh_order": 16}),
    ],
    "fig9": [
        ("sweep", "r3_8", 0.9, OPT, {}),
        ("sweep", "r3_16", 0.9, OPT, {}),
        ("sweep", "r3_64", 0.9, OPT, {}),
        ("curve", "r3_8", 0.9, 0.0, {"gammas_db": list(np.arange(0.0, 20.5, 4.0))}),
        ("curve", "r3_8", 0.9, OPT, {"gammas_db": list(np.arange(0.0, 20.5, 4.0))}),
        ("bounds", "r3_16", 0.9, OPT, {}),
        ("bounds", "r3_64", 0.9, OPT, {}),
    ],
}


def cmd_reproduce(args) -> int:
    cfg = engine_from_args(args)
    outdir = args.out or "results"
    os.makedirs(outdir, exist_ok=True)
    tag, seed = args.target, cfg.seed
    if all(step[0] != "boundary" for step in RECIPES[tag]):
        reject_unread(args, ["angles"], f"reproduce {tag}")
    optima = {}

    def write(stem, columns, rows, meta):
        path = os.path.join(outdir, f"{tag}_{stem}.{args.format}")
        write_table(path, columns, rows, {"recipe": tag, **meta}, args.format)

    for kind, name, R, theta, opts in RECIPES[tag]:
        gammas_db = opts.get("gammas_db", GAMMAS_DB)
        if kind == "gaussian":
            rows = _curve_rows(OutageGeometry.gaussian(2, R, 257), gammas_db, 0)
            write("outage_gaussian", CURVE_COLUMNS, rows, {"input": "gaussian", "R": R})
            continue
        c = constellations.build_named(name)
        step_deg, order = opts.get("step_deg", 0.5), opts.get("gh_order", cfg.gh_order)
        run_cfg = dataclasses.replace(cfg, gh_order=order)
        opt = None
        if theta == OPT:
            key = (name, R, step_deg, order)
            if key not in optima:
                optima[key] = optimize(c, R, run_cfg, coarse_step_deg=step_deg)
            opt = optima[key]
            theta = round(math.degrees(opt.theta_opt), 2)
        if kind == "sweep":
            profile = opt.profile if opt else sweep(
                c, R, grid=default_grid(c.B, step_deg), cfg=run_cfg,
                include_product_distance=opts.get("dpmin", False),
            )
            write(f"sweep_{name}", SWEEP_COLUMNS, _sweep_rows(profile),
                  {"constellation": name, "R": R, "seed": seed, "gh_order": order})
            continue
        p = precoders.rotation(c.B, math.radians(theta))
        if kind == "boundary":
            q = OutageQuery(c, p, R=R, gamma=db_to_linear(opts["gamma_db"]))
            write(f"boundary_{name}_t{theta:g}", ["lambda_rad", "rho", "saturated"],
                  _trace_rows(trace_boundary_2d(q, args.angles, cfg)),
                  {"theta_deg": theta, "R": R, "gamma_db": opts["gamma_db"], "seed": seed})
            continue
        if kind == "curve":
            stem = "outage"
            rows = _outage_curve(c, p, R, gammas_db, cfg, seed, _curve_method(c, R, "auto"))
        else:  # bounds
            stem = "bounds"
            geom = OutageGeometry(
                c.B, R, gamma_s_at(c, R, math.radians(theta), cfg),
                ergodic_snr(c, R, dataclasses.replace(cfg, gh_order=min(cfg.gh_order, 12))),
            )
            rows = _curve_rows(geom, gammas_db, seed, lambda gammas: [BOUNDS_ONLY] * len(gammas))
        write(f"{stem}_{name}_t{theta:g}", CURVE_COLUMNS, rows,
              {"constellation": name, "theta_deg": theta, "R": R, "seed": seed})
    print(f"wrote {tag} data to {outdir}/")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_input(p, gaussian: bool = False):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--constellation", help="registry name")
    g.add_argument("--constellation-file", help="JSON constellation file")
    if gaussian:
        g.add_argument("--gaussian", action="store_true",
                       help="i.i.d. Gaussian input instead of a constellation")


def _add_precoder(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--theta-deg", type=float, default=0.0, help="rotation angle, B = 2 or 3")
    g.add_argument("--phases-deg", default=None,
                   help="real circulant: comma list of eigenphases phi_0..phi_floor(B/2), "
                        "phi_0 (and phi_B/2 for even B) 0 or 180")


def _add_rate(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--R", type=float, default=None, help="rate in bits per channel use")
    g.add_argument("--Rc", type=float, default=None, help="coding rate; R = Rc*m/B")


def _add_engine_output(p):
    p.add_argument("--engine", default="quadrature", choices=("quadrature", "mc"))
    p.add_argument("--gh-order", type=int, default=32)
    p.add_argument("--mc-samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file (stdout when omitted)")
    p.add_argument("--format", default="csv", choices=("csv", "json"))


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once: parsing keeps no state in it, so calls share it.

    Each subcommand takes only the flags its handler reads, and the input and
    the rate are each one choice, so argparse rejects (exit 2) a flag that
    would be ignored or would override another.
    """
    ap = argparse.ArgumentParser(prog="outagelab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    # no prefix matching: --m would otherwise be read as --mc-samples
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("mi", help="instantaneous mutual information at one fading point")
    p.add_argument("--alpha", required=True, help="comma list of fading gains")
    p.add_argument("--gamma-db", type=float, required=True)
    _add_input(p, gaussian=True)
    _add_precoder(p)
    p.set_defaults(func=cmd_mi)

    p = add("anchors", help="axis and ergodic boundary crossings")
    p.add_argument("--gamma-db", type=float, required=True)
    p.add_argument("--B", type=int, default=None, help="blocks of a --gaussian input")
    _add_input(p, gaussian=True)
    _add_precoder(p)
    _add_rate(p)
    p.set_defaults(func=cmd_anchors)

    p = add("outage", help="outage probability over an SNR grid")
    p.add_argument("--gamma-db", required=True, help="single value or a:b:step")
    p.add_argument("--method", default="auto", choices=("auto", "boundary", "mc"))
    p.add_argument("--angles", type=int, default=513, help="boundary trace resolution")
    _add_input(p, gaussian=True)
    _add_precoder(p)
    _add_rate(p)
    p.set_defaults(func=cmd_outage)

    p = add("boundary", help="trace the 2-D outage boundary")
    p.add_argument("--gamma-db", type=float, required=True)
    p.add_argument("--angles", type=int, default=513, help="boundary trace resolution")
    _add_input(p, gaussian=True)
    _add_precoder(p)
    _add_rate(p)
    p.set_defaults(func=cmd_boundary)

    p = add("sweep", help="gamma_s over an angle grid")
    p.add_argument("--theta-grid", default=None, help="a:b:step in degrees")
    p.add_argument("--product-distance", action="store_true")
    _add_input(p)
    _add_rate(p)
    p.set_defaults(func=cmd_sweep)

    p = add("optimize", help="minimize gamma_s over the angle")
    _add_input(p)
    _add_rate(p)
    p.set_defaults(func=cmd_optimize)

    p = add("expand", help="compare constellation expansions at fixed R")
    p.add_argument("--candidates", required=True, help="name:Rc,name:Rc,...")
    p.add_argument("--R", type=float, default=None, help="rate in bits per channel use")
    p.set_defaults(func=cmd_expand)

    p = add("reproduce", help="run a canned study configuration")
    p.add_argument("target", choices=sorted(RECIPES))
    p.add_argument("--angles", type=int, default=513, help="boundary trace resolution")
    p.set_defaults(func=cmd_reproduce)

    for p in sub.choices.values():  # every handler reads the engine and output flags
        _add_engine_output(p)
        p.set_defaults(parser=p)  # for reject_unread's defaults
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SaturationError as exc:
        print(
            f"infeasible rate: {exc}\n"
            "the target rate needs more projection points than the precoded "
            "constellation offers on one axis (2^(B*R) must not exceed the "
            "effective projection size); full diversity is unattainable here",
            file=sys.stderr,
        )
        return 3
    except (ConfigError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
