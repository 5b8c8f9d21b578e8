"""Span tracing of the `outagelab` layers, installed from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper in
every `outagelab` module namespace that holds it (the package re-exports
names, and `outage`, `optimizer` and `cli` import functions by name, so
patching the defining module alone would miss their calls).  Methods of
`PolarMICache` are patched on the class.  `uninstall()` puts the originals
back.  Spans stay in memory as lists `[name, start, end, parent, attrs,
child_s]` until `write()`.

`layer_metrics()` turns the spans into the per-layer metrics listed in
BENCHMARK.json.  Counts depend only on the inputs, so two traced runs of
the same study give identical counts; times are wall clock.
"""

import functools
import json
import sys
import time

MI_BATCH = "mutual_info.mi_per_use_batch"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _call(self, name, fn, args, kwargs, before, after, counted_f):
        parent = self._stack[-1] if self._stack else -1
        if name == MI_BATCH and parent >= 0 and self.spans[parent][0] == MI_BATCH:
            # inner call of the complex chain rule: part of the outer call
            return fn(*args, **kwargs)
        attrs = before(*args, **kwargs) if before else {}
        span = [name, 0.0, 0.0, parent, attrs, 0.0]
        idx = len(self.spans)
        self.spans.append(span)
        if counted_f:
            attrs["f_evals"] = 0
            f = args[0]

            def f_counted(x):
                attrs["f_evals"] += 1
                return f(x)

            args = (f_counted,) + tuple(args[1:])
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][5] += span[2] - span[1]
        if after:
            attrs.update(after(args, result))
        return result

    def _wrapper(self, name, fn, before=None, after=None, counted_f=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, before, after, counted_f)

        return traced

    # -- patching -----------------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "outagelab" and not modname.startswith("outagelab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._patched.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def install(self):
        from outagelab import cli, constellations, mutual_info, optimizer, outage, precoders, search

        cfg0 = mutual_info.DEFAULT_CONFIG

        def scalar_attrs(sp, snr, cfg=cfg0):
            S = len(sp.values)
            D = 2 if sp.is_complex else 1
            ops = S * S * cfg.gh_order**D
            quad = snr > 0 and cfg.engine == "quadrature" and ops <= cfg.budget_ops
            return {"pair_node_evals": ops if quad else 0}

        def batch_attrs(omega_x, alphas, gamma, cfg=cfg0):
            rows = len(alphas) if getattr(alphas, "ndim", 2) > 1 else 1
            c = omega_x
            if c.field == "complex" and cfg.complex_chain and c.real_base is not None:
                c = c.real_base
            D = 2 * c.B if c.field == "complex" else c.B
            ops = c.M * c.M * cfg.gh_order**D
            quad = cfg.engine == "quadrature" and ops <= cfg.budget_ops
            return {"rows": rows, "pair_node_evals": rows * ops if quad else 0,
                    "mc_fallback": 0 if quad else 1}

        def trace_attrs(q, n_angles=513, cfg=cfg0):
            return {"rays": n_angles}

        def rows_attrs(self_, alphas, gamma, threshold=None):
            return {"rows": len(alphas)}

        def cache_after(args, result):
            cache = args[0]
            points = 1
            for n in cache._sizes:
                points *= n
            return {"grid_points": points,
                    "validation_err_bits": getattr(cache, "validation_error_bits", 0.0)}

        def mc_attrs(q, n, *args, **kwargs):
            return {"samples": n}

        functions = [
            (cli, "main", {}),
            (optimizer, "optimize", {}),
            (optimizer, "sweep", {}),
            (optimizer, "gamma_s_at", {}),
            (search, "solve_increasing", {"counted_f": True}),
            (search, "golden_min", {"counted_f": True}),
            (mutual_info, "inv_mi_scalar", {}),
            (mutual_info, "mi_scalar", {"before": scalar_attrs}),
            (mutual_info, "mi_per_use_batch", {"before": batch_attrs}),
            (outage, "compute_anchors", {}),
            (outage, "hypersphere_bounds", {}),
            (outage, "trace_boundary_2d", {"before": trace_attrs}),
            (outage, "outage_from_boundary_2d", {}),
            (outage, "outage_mc", {"before": mc_attrs}),
            (constellations, "project", {}),
            (constellations, "build_named", {}),
            (precoders, "apply", {}),
        ]
        for mod, attr, opts in functions:
            original = getattr(mod, attr)
            name = f"{mod.__name__.rpartition('.')[2]}.{attr}"
            self._patch_everywhere(original, self._wrapper(name, original, **opts))
        cache_cls = outage.PolarMICache
        self._patch_method(cache_cls, "__init__", self._wrapper(
            "outage.PolarMICache", cache_cls.__init__, after=cache_after))
        self._patch_method(cache_cls, "mi", self._wrapper(
            "outage.PolarMICache.mi", cache_cls.mi, before=rows_attrs))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs", "child_s"],
                       "spans": self.spans}, fh)


def _has_ancestor(spans, idx, names):
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from one traced study (unitless values)."""
    count, total, self_layer = {}, {}, {}
    for name, t0, t1, parent, attrs, child in spans:
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        layer = name.partition(".")[0]
        self_layer[layer] = self_layer.get(layer, 0.0) + (t1 - t0 - child)

    def select(name, under=None, outside=()):
        return [sp for i, sp in enumerate(spans) if sp[0] == name
                and (under is None or _has_ancestor(spans, i, under))
                and not _has_ancestor(spans, i, outside)]

    def attr_sum(name, key, under=None, outside=()):
        return sum(sp[4].get(key, 0) for sp in select(name, under, outside))

    def ratio(a, b):
        return a / b if b else 0.0

    n = count.get
    t = total.get
    solves = n("search.solve_increasing", 0)
    inv = n("mutual_info.inv_mi_scalar", 0)
    rays = attr_sum("outage.trace_boundary_2d", "rays")
    batch_rows = attr_sum(MI_BATCH, "rows")
    # lookups made while a cache validates itself are part of its build
    in_mc, building = {"outage.outage_mc"}, {"outage.PolarMICache"}
    lookups = attr_sum("outage.PolarMICache.mi", "rows", in_mc, building)
    lookup_s = sum(sp[2] - sp[1] for sp in select("outage.PolarMICache.mi", in_mc, building))
    trace_self = sum(sp[2] - sp[1] - sp[5] for sp in spans if sp[0] == "outage.trace_boundary_2d")
    err = [sp[4].get("validation_err_bits", 0.0) for sp in spans if sp[0] == "outage.PolarMICache"]
    return {
        "cli.calls": n("cli.main", 0),
        "cli.self_s": self_layer.get("cli", 0.0),
        "optimizer.gamma_s_evals": n("optimizer.gamma_s_at", 0),
        "optimizer.self_s": self_layer.get("optimizer", 0.0),
        "search.solves": solves,
        "search.f_evals_per_solve": ratio(attr_sum("search.solve_increasing", "f_evals"), solves),
        "search.golden_f_evals": attr_sum("search.golden_min", "f_evals"),
        "search.self_s": self_layer.get("search", 0.0),
        "mutual_info.inv_solves": inv,
        "mutual_info.scalar_evals": n("mutual_info.mi_scalar", 0),
        "mutual_info.scalar_evals_per_inv_solve": ratio(
            len(select("mutual_info.mi_scalar", {"mutual_info.inv_mi_scalar"})), inv),
        "mutual_info.scalar_s": t("mutual_info.mi_scalar", 0.0),
        "mutual_info.scalar_pair_node_evals": attr_sum("mutual_info.mi_scalar", "pair_node_evals"),
        "mutual_info.batch_calls": n(MI_BATCH, 0),
        "mutual_info.batch_rows": batch_rows,
        "mutual_info.batch_s": t(MI_BATCH, 0.0),
        "mutual_info.batch_rows_per_s": ratio(batch_rows, t(MI_BATCH, 0.0)),
        "mutual_info.batch_pair_node_evals": attr_sum(MI_BATCH, "pair_node_evals"),
        "mutual_info.mc_fallback_calls": attr_sum(MI_BATCH, "mc_fallback"),
        "outage.anchor_calls": n("outage.compute_anchors", 0),
        "outage.anchor_s": t("outage.compute_anchors", 0.0),
        "outage.trace_calls": n("outage.trace_boundary_2d", 0),
        "outage.trace_rays": rays,
        "outage.trace_rows_per_ray": ratio(
            attr_sum(MI_BATCH, "rows", {"outage.trace_boundary_2d"}), rays),
        "outage.trace_s": t("outage.trace_boundary_2d", 0.0),
        "outage.trace_self_s": trace_self,
        "outage.cache_builds": n("outage.PolarMICache", 0),
        "outage.cache_build_s": t("outage.PolarMICache", 0.0),
        "outage.cache_build_rows": attr_sum(MI_BATCH, "rows", {"outage.PolarMICache"}),
        "outage.cache_grid_points": attr_sum("outage.PolarMICache", "grid_points"),
        "outage.cache_validation_err_bits": max(err, default=0.0),
        "outage.cache_lookups": lookups,
        "outage.cache_lookup_s": lookup_s,
        "outage.cache_lookups_per_s": ratio(lookups, lookup_s),
        "outage.cache_direct_rows": attr_sum(MI_BATCH, "rows", {"outage.PolarMICache.mi"}, building),
        "outage.mc_samples": attr_sum("outage.outage_mc", "samples"),
        "outage.mc_s": t("outage.outage_mc", 0.0),
        "constellations.project_calls": n("constellations.project", 0),
        "constellations.project_s": t("constellations.project", 0.0),
        "constellations.build_s": t("constellations.build_named", 0.0),
        "precoders.apply_calls": n("precoders.apply", 0),
        "precoders.apply_s": t("precoders.apply", 0.0),
    }
