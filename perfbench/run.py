#!/usr/bin/env python3
"""Benchmark of the outagelab command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload angle-opt --seed 1 --seconds 38 --trace 0

A run drives `outagelab.cli.main(argv)` in-process, one subcommand after
another, as a closed loop with a single caller: a workload's study (see
workloads.py) is repeated until `--seconds` would be exceeded, and the median
study time is reported.  The outputs of every repetition are checked after
the timed calls (checks.py).  With `--trace 1` the loop alternates untraced
and traced studies; the first traced study's spans give the per-layer
metrics (tracing.py) and are written under `.perfbench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the environment.  The program is imported from `src/` of the same checkout;
the run exits with code 2, printing no result, when it cannot be imported.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "ok_frac")
# per-layer metrics the harness adds to tracing.layer_metrics()
TRACE_METRICS = ("cli.bytes_out", "trace.spans", "trace.wall_s", "trace.overhead_s")

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402


class HarnessError(RuntimeError):
    """The benchmark cannot run here: program missing or spec mismatch."""


def import_program():
    """Import outagelab from this checkout's src/, never from elsewhere."""
    try:
        import outagelab
        from outagelab import cli
    except ImportError as exc:
        raise HarnessError(f"cannot import outagelab from {SRC}: {exc}") from exc
    if Path(outagelab.__file__).resolve().parent != SRC / "outagelab":
        raise HarnessError(f"outagelab was imported from {outagelab.__file__}, not {SRC}")
    return cli


def prepare(workload: str, seed: int):
    """Everything before the first CLI call: imports, inputs, reference values."""
    cli = import_program()
    calls = workloads.WORKLOADS[workload](seed)
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    return cli, calls, reference


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from spawning a fresh interpreter to the point a study could start."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise HarnessError(f"setup probe failed with exit code {rc}")
    return times


def run_study(cli, calls, outdir: Path):
    """One study: every call in order.  Returns (wall seconds, per-call outcome)."""
    paths = [outdir / f"{c.key}.csv" for c in calls]
    for p in paths:
        if p.exists():
            p.unlink()
    outcomes = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        for c, p in zip(calls, paths):
            try:
                rc = cli.main(list(c.argv) + ["--out", str(p)])
                err = None
            except Exception as exc:  # a crashing call fails its rows; the study goes on
                rc, err = None, repr(exc)
            outcomes.append({"rc": rc, "error": err})
        wall = time.perf_counter() - t0
    for o, p in zip(outcomes, paths):
        o["bytes"] = p.read_bytes() if p.exists() else None
    return wall, outcomes, len(sink.getvalue().encode())


def boundary_mi(call):
    """Per-use MI of the call's precoded constellation at one fading point."""
    import math

    import numpy as np
    from outagelab import ChannelSample, apply, build_named, mi_per_use, rotation2

    e = call.expect
    omega_x = apply(rotation2(math.radians(e["theta_deg"])), build_named(e["name"]))
    gamma = 10.0 ** (e["gamma_db"] / 10.0)
    return lambda alpha: mi_per_use(omega_x, ChannelSample(np.array(alpha), gamma)).value


def count_failures(calls, reps, reference, workload, seed):
    """(attempted, failed) operations over all repetitions of the study."""
    refs = reference["outputs"][workload] if seed == workloads.DEFAULT_SEED else {}
    mc_ref = reference["mc_boundary_p_out"]
    first = {}
    attempted = failed = 0
    for outcomes in reps:
        for c, o in zip(calls, outcomes):
            attempted += c.expected_rows()
            if o["rc"] != 0 or o["bytes"] is None:
                failed += c.expected_rows()
            elif c.key not in first:
                try:
                    table = checks.parse_table(o["bytes"].decode())
                except (ValueError, UnicodeDecodeError):
                    table = None
                mi = boundary_mi(c) if c.kind == "boundary" else None
                first[c.key] = (o["bytes"], checks.check_call(c, table, refs.get(c.key), mc_ref, mi))
                failed += first[c.key][1]
            elif o["bytes"] == first[c.key][0]:
                failed += first[c.key][1]
            else:
                # identical invocations must write identical bytes
                failed += c.expected_rows()
    return attempted, failed


def blas_threads():
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(workload, seed):
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() if res.returncode == 0 else None
    digest = hashlib.sha256()
    for p in sorted((SRC / "outagelab").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def spec_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    cli, calls, reference = prepare(args.workload, args.seed)
    units = spec_metrics(bool(args.trace))
    env = environment(args.workload, args.seed)
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        raise HarnessError(f"{env['blas_threads']} BLAS threads on {env['nproc']} cores")
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    outdir = OUT_ROOT / f"{args.workload}-s{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)

    # a traced run alternates untraced and traced studies; the first traced
    # study gives the per-layer metrics, all of them the tracing overhead
    walls, traced_walls, reps = [], [], []
    first = None
    t_loop = time.perf_counter()
    while True:
        wall, outcomes, _ = run_study(cli, calls, outdir)
        walls.append(wall)
        reps.append(outcomes)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_wall, outcomes, stdout_bytes = run_study(cli, calls, outdir)
            finally:
                tracer.uninstall()
            traced_walls.append(traced_wall)
            reps.append(outcomes)
            if first is None:
                first = (tracer, outcomes, stdout_bytes)
            wall += traced_wall
        if time.perf_counter() - t_loop + wall > args.seconds:
            break

    if args.trace:
        tracer, outcomes, stdout_bytes = first
        tracer.write(outdir / "spans.json")
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["cli.bytes_out"] = stdout_bytes + sum(len(o["bytes"] or b"") for o in outcomes)
        metrics["trace.spans"] = len(tracer.spans)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        # every traced study runs warm, so the cold first study is left out
        warm = walls[1:] or walls
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(warm)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    attempted, failed = count_failures(calls, reps, reference, args.workload, args.seed)
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    if set(metrics) != set(units):
        raise HarnessError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    env.update(seconds=args.seconds, trace=args.trace, studies=len(walls),
               walls_s=walls, traced_walls_s=traced_walls, setup_probes_s=setup)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(outdir / f"result-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "result": result}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
