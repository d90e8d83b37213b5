"""Outside-in tracer for the ngstate package.

The package is treated as a black box: the tracer replaces every binding
of a fixed list of public functions with a wrapper -- the defining
module's attribute, each re-export (``ngstate.__init__``, ``cli``'s
``from .statemap import x_from_c4``, ...) and any function default that
holds one -- and restores the originals on ``uninstall``.  Calls that go
through a module attribute (``_sf.small_f(s)``) therefore hit the wrapper
too, so spans nest the way the calls do.

A span is (name, start, end, parent span, item id, elements, extra).
Spans stay in memory; ``write_spans`` dumps them once the run is over.
Element counts and Bessel row keys are taken from the arguments after the
span's end time is read, so they are not part of the span's duration.
A few cheap, very frequent scalar kernels get a counting wrapper instead
of a span: it records the call and the name of the innermost open span.
"""

import functools
import math
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

_WIGNER = ("wigner.wigner_grid", "wigner.project_physical", "wigner.ln_w")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _elems_arg(pos, name):
    def extract(tracer, args, kwargs, result):
        return int(np.size(_arg(args, kwargs, pos, name))), None
    return extract


def _elems_pair(first, second):
    def extract(tracer, args, kwargs, result):
        shape = np.broadcast_shapes(np.shape(_arg(args, kwargs, 1, first)),
                                    np.shape(_arg(args, kwargs, 2, second)))
        return math.prod(shape), None
    return extract


def _elems_outer(first, second, pos=1):
    def extract(tracer, args, kwargs, result):
        return (int(np.size(_arg(args, kwargs, pos, first)))
                * int(np.size(_arg(args, kwargs, pos + 1, second)))), None
    return extract


def _one(tracer, args, kwargs, result):
    return 1, None


def _bessel(tracer, args, kwargs, result):
    # Each row of the argument is N*r*v over one quadrature mesh; within
    # one Wigner call the mesh is shared, so (order, last column) names
    # the r value.  Rows are collected per enclosing Wigner span.
    order = int(_arg(args, kwargs, 0, "order"))
    arg = np.asarray(_arg(args, kwargs, 1, "argument"))
    keys = arg.reshape(-1, arg.shape[-1])[:, -1].tolist() if arg.ndim else [float(arg)]
    owner = next((i for i, nm in reversed(tracer.stack) if nm in _WIGNER), -1)
    tracer.bessel_rows += len(keys)
    tracer.bessel_keys[owner].update((order, k) for k in keys)
    return int(arg.size), None


def _write_csv(tracer, args, kwargs, result):
    rows = _arg(args, kwargs, 2, "rows")
    n_rows = len(rows) if hasattr(rows, "__len__") else 0
    return n_rows, os.path.getsize(_arg(args, kwargs, 0, "path"))


def _wigner_grid(tracer, args, kwargs, result):
    n_out, _ = _elems_outer("u", "r")(tracer, args, kwargs, result)
    return n_out, (n_out, result.quad_points, result.v_max)


def _project(tracer, args, kwargs, result):
    n_out, _ = _elems_outer("phi", "pi", pos=3)(tracer, args, kwargs, result)
    return n_out, (n_out, result.quad_points, result.v_max)


def _ln_w(tracer, args, kwargs, result):
    return 1, (1, 0, 0.0)


def _cli_main(tracer, args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv")
    return 1, argv[0] if argv else ""


# (module, function) -> element extractor; each gets a timed span
SPAN_FUNCS = {
    ("specfun", "small_f"): _elems_arg(0, "s"),
    ("specfun", "bessel_j"): _bessel,
    ("saddle", "solve_saddle_uv_many"): _elems_pair("u_sq", "v_sq"),
    ("saddle", "solve_trace_raw"): _one,
    ("statemap", "x_from_c4"): _one,
    ("observables", "purity"): _one,
    ("densmat", "ln_d_many"): _elems_pair("u_sq", "v_sq"),
    ("densmat", "d_surface"): _elems_outer("u", "v"),
    ("densmat", "ln_d"): _one,
    ("wigner", "wigner_grid"): _wigner_grid,
    ("wigner", "project_physical"): _project,
    ("wigner", "ln_w"): _ln_w,
    ("gridio", "write_csv"): _write_csv,
    ("gridio", "write_metadata"): _one,
    ("oracle", "run_validation"): _one,
    ("cli", "main"): _cli_main,
}

# cheap scalar kernels called tens of thousands of times: count only
COUNT_FUNCS = (
    ("specfun", "h2"),
    ("specfun", "h_trace"),
    ("observables", "c4_half_ratio_nx"),
)

PRESETS = ("fig1_c4", "fig2_purity", "fig3_dsurface", "fig4_dslices",
           "fig5_wigner", "fig6_contours", "fig7_slice", "validate")


def _stat_unit(stat):
    return {"calls": "count", "elems": "count", "rows": "count",
            "bytes": "B"}.get(stat, "s")


def _metric_names():
    names = []

    def add(prefix, stats):
        names.extend((f"{prefix}.{st}", _stat_unit(st)) for st in stats)

    add("specfun.small_f", ("calls", "elems", "self_s"))
    add("saddle.solve_saddle_uv_many", ("calls", "elems", "self_s"))
    names.append(("saddle.kernel_evals_per_elem", "evals/elem"))
    add("specfun.bessel_j", ("calls", "elems", "self_s"))
    names.append(("wigner.bessel_unique_frac", "ratio"))
    for fn in ("wigner_grid", "project_physical", "ln_w"):
        add(f"wigner.{fn}", ("calls", "total_s", "self_s"))
    names += [("wigner.envelope_elems", "count"),
              ("wigner.envelope_elems_per_output", "elems/output"),
              ("wigner.quad_points", "count"),
              ("wigner.v_max", "dimensionless")]
    for fn in ("ln_d_many", "d_surface", "ln_d"):
        add(f"densmat.{fn}", ("calls", "elems", "total_s"))
    add("specfun.h2", ("calls",))
    add("specfun.h_trace", ("calls",))
    add("saddle.solve_trace_raw", ("calls", "self_s"))
    names.append(("saddle.scalar_evals_per_solve", "evals/solve"))
    add("observables.purity", ("calls", "total_s"))
    add("statemap.x_from_c4", ("calls", "self_s"))
    names.append(("statemap.evals_per_inversion", "evals/inversion"))
    add("gridio.write_csv", ("calls", "rows", "bytes", "self_s"))
    add("gridio.write_metadata", ("self_s",))
    names += [(f"cli.{p}.wall_s", "s") for p in PRESETS]
    names.append(("cli.self_s", "s"))
    names.append(("oracle.run_validation.total_s", "s"))
    names.append(("trace.overhead_frac", "ratio"))
    return names


# every per-layer metric, in report order, with its unit
LAYER_METRICS = _metric_names()


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.stack = []          # open spans as (index, name)
        self.counts = defaultdict(int)  # (function, innermost span) -> calls
        self.bessel_keys = defaultdict(set)
        self.bessel_rows = 0
        self.item = -1
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, extract):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, -1, self.item, 0, None))
            parent = stack[-1][0] if stack else -1
            stack.append((index, name))
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item, 0, None)
            elems, extra = extract(self, args, kwargs, result)
            spans[index] = (name, start, end, parent, self.item, elems, extra)
            return result

        return traced

    def _counter(self, name, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(name, stack[-1][1] if stack else "")] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ---------------------------------------------------------

    def install(self):
        pkg = "ngstate"
        replace = {}
        for (mod, fn_name), extract in SPAN_FUNCS.items():
            orig = getattr(sys.modules[f"{pkg}.{mod}"], fn_name)
            replace[id(orig)] = (orig, self._span(f"{mod}.{fn_name}", orig, extract))
        for mod, fn_name in COUNT_FUNCS:
            orig = getattr(sys.modules[f"{pkg}.{mod}"], fn_name)
            replace[id(orig)] = (orig, self._counter(f"{mod}.{fn_name}", orig))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
                elif isinstance(value, types.FunctionType) and value.__defaults__:
                    old = value.__defaults__
                    new = tuple(replace[id(d)][1]
                                if id(d) in replace and replace[id(d)][0] is d
                                else d for d in old)
                    if new != old:
                        self._patches.append((value, "__defaults__", old))
                        value.__defaults__ = new

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of this pass (without trace.overhead_frac)."""
        spans = self.spans
        child = [0.0] * len(spans)
        under_wigner = [False] * len(spans)
        agg = defaultdict(lambda: [0, 0, 0.0, 0.0])  # calls, elems, total, self
        for i, (name, start, end, parent, _, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
            under_wigner[i] = name in _WIGNER or (parent >= 0 and under_wigner[parent])
        cli_wall = defaultdict(float)
        csv_rows = csv_bytes = envelope = outputs = quad = 0
        v_max = 0.0
        for i, (name, start, end, parent, _, elems, extra) in enumerate(spans):
            a = agg[name]
            a[0] += 1
            a[1] += elems
            a[2] += end - start
            a[3] += end - start - child[i]
            if name == "cli.main":
                cli_wall[extra] += end - start
            elif name == "gridio.write_csv":
                csv_rows += elems
                csv_bytes += extra
            elif name == "densmat.ln_d_many" and under_wigner[i]:
                envelope += elems
            elif name in _WIGNER and extra is not None:
                outputs += extra[0]
                quad += extra[1]
                v_max = max(v_max, extra[2])

        def ratio(num, den):
            return num / den if den else 0.0

        def under(fn, span):
            return self.counts.get((fn, span), 0)

        def total(fn):
            return sum(c for (f, _), c in self.counts.items() if f == fn)

        distinct = sum(len(keys) for keys in self.bessel_keys.values())
        stat_index = {"calls": 0, "elems": 1, "total_s": 2, "self_s": 3}
        values = {
            "saddle.kernel_evals_per_elem": ratio(
                agg["specfun.small_f"][1], agg["saddle.solve_saddle_uv_many"][1]),
            "wigner.bessel_unique_frac": ratio(distinct, self.bessel_rows),
            "wigner.envelope_elems": envelope,
            "wigner.envelope_elems_per_output": ratio(envelope, outputs),
            "wigner.quad_points": quad,
            "wigner.v_max": v_max,
            "specfun.h2.calls": total("specfun.h2"),
            "specfun.h_trace.calls": total("specfun.h_trace"),
            "saddle.scalar_evals_per_solve": ratio(
                under("specfun.h2", "saddle.solve_trace_raw")
                + under("specfun.h_trace", "saddle.solve_trace_raw"),
                agg["saddle.solve_trace_raw"][0]),
            "statemap.evals_per_inversion": ratio(
                under("observables.c4_half_ratio_nx", "statemap.x_from_c4"),
                agg["statemap.x_from_c4"][0]),
            "gridio.write_csv.rows": csv_rows,
            "gridio.write_csv.bytes": csv_bytes,
            "cli.self_s": agg["cli.main"][3],
            "oracle.run_validation.total_s": agg["oracle.run_validation"][2],
        }
        values.update({f"cli.{p}.wall_s": cli_wall.get(p, 0.0) for p in PRESETS})
        for metric, _ in LAYER_METRICS:
            if metric in values or metric == "trace.overhead_frac":
                continue
            span, stat = metric.rsplit(".", 1)
            values[metric] = agg[span][stat_index[stat]] if span in agg else 0
        return values

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,start_s,end_s,parent,item,elems\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, item, elems, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent},{item},{elems}\n")
