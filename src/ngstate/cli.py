"""Command-line front end: figure-data presets and the validation suite.

Each fig* subcommand computes one family of data artifacts and writes
them to --out as CSV (or JSON) tables plus a flat meta.json sidecar with
every resolved configuration value.  `validate` runs the library's
invariant suite and prints a PASS/FAIL report.  No rendering happens
here; the files are meant for external plotting tools.

Presets:
    fig1_c4        four-point ratio vs nongaussianity, one curve per n
    fig2_purity    purity and purity ratio vs nongaussianity, per n
    fig3_dsurface  matrix-element surface ln d(u, v), one file per x
    fig4_dslices   v = 0 slices of ln d, one curve per x in a single file
    fig5_wigner    radial Wigner grids ln w(u, r), one file per x
    fig6_contours  physical-coordinate Wigner contours per squeeze
                   angle and projection mode
    fig7_slice     strongly non-Gaussian Wigner slice along phi at pi = 0

Exit codes: 0 success; 1 a computation failed, did not converge or could
not be written (completed artifacts are still written and flagged in
meta.json); 2 invalid configuration or an --out that cannot be made a
directory, before any file is written.  A Wigner artifact extrapolates
four N in 1/N (meta's n_list: wigner.N_LIST, or _FIG6_N_LIST for fig6's
wider window), and converged when its max_spread is at most
wigner.SPREAD_TOL (meta's tol).

Each flag's default and valid range are set once, in build_parser()
(`ngstate <preset> --help` shows the defaults): its argparse type refuses
values out of range, and the library's constructors refuse the rest
(--gamma, --phi, --c4-ratio) when a planner builds its objects.

Worker threads (--threads, or NGSTATE_THREADS when the flag is absent)
parallelize across artifacts only; each artifact's numbers are computed
on a fixed mesh independent of the thread count, so data files are
byte-identical for any --threads value.
"""

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import densmat as _dm
from . import gridio as _io
from . import observables as _obs
from . import oracle as _orc
from . import wigner as _wig
from .errors import NgStateError
from .statemap import ReducedState, x_from_c4


def _tag(value):
    """File-name token for a parameter value: 0.5 -> '0p5'."""
    return _io.format_number(float(value)).replace(".", "p").replace("-", "m")


def _tags(flag, values):
    """_tag of each value; refuses two values that would share a file."""
    tags = [_tag(v) for v in values]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ValueError(f"{flag} values {values[tags.index(tag)]!r} and "
                             f"{values[i]!r} share the file-name token {tag!r}")
    return tags


def _number(convert, low=-math.inf, strict=False):
    """argparse type: convert(text), refused unless finite and >= low
    (> low when strict)."""
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"expected a finite {convert.__name__}{bound}, got {text!r}")
        return value
    return parse


_finite = _number(float)
_nonneg = _number(float, 0.0)
_positive = _number(float, 0.0, strict=True)
_count = _number(int, 1)


def _grid(shape):
    """argparse type for --grid of shape "W" or "WxH": each size >= 2."""
    def parse(text):
        try:
            dims = tuple(int(p) for p in text.lower().split("x"))
        except ValueError:
            dims = ()
        if len(dims) != len(shape.split("x")) or min(dims) < 2:
            raise argparse.ArgumentTypeError(
                f"expected {shape} with each size >= 2, got {text!r}")
        return dims
    return parse


def _resolve_x(args):
    if args.c4_ratio is not None:
        return [x_from_c4(args.n, args.c4_ratio)]
    return args.x


def _quad_diag(result, **extra):
    """The preset's own diagnostics, then the quadrature and convergence
    fields of a WignerGrid or ProjectionGrid, judged as ln_w judges them."""
    spread_max = float(np.max(result.spread))
    return {**extra, "max_spread": spread_max, "converged": spread_max <= _wig.SPREAD_TOL,
            "quad_v_max": result.v_max, "quad_points": result.quad_points}


def _u_axis(state, nu, u_max):
    if u_max is not None:
        return np.linspace(0.0, u_max, nu)
    return _dm.default_grid(state, nu, 2)[0]


# ---------------------------------------------------------------------------
# preset planners: args -> ({artifact name: builder}, shared metadata)

def _plan_fig1(args):
    n_values, x_values = args.n, args.x

    def build():
        ratio = [[_obs.c4_half_ratio_nx(n, x) for x in x_values]
                 for n in n_values]
        return (("n", "x", "c4_ratio"),
                _io.tensor_table(n_values, x_values, ratio), {})

    return {"c4_ratio": build}, {"n": n_values, "x": x_values}


def _plan_fig2(args):
    n_values, x_values = args.n, args.x

    def build():
        # n = 0 is the pure-state limit: the purity stays 1 for every x
        p = np.ones((3, len(n_values), len(x_values)))
        rows = [i for i, n in enumerate(n_values) if n != 0.0]
        rep = _obs.purity_many([ReducedState.from_nx(n_values[i], x)
                                for i in rows for x in x_values])
        p[:, rows] = np.reshape([rep.p, rep.p_gaussian, rep.ratio],
                                (3, len(rows), len(x_values)))
        return (("n", "x", "p", "p_gaussian", "ratio"),
                _io.tensor_table(n_values, x_values, *p), {})

    return {"purity": build}, {"n": n_values, "x": x_values}


def _plan_fig3(args):
    x_values = _resolve_x(args)
    nu, nv = args.grid
    jobs = {}
    for x, tag in zip(x_values, _tags("--x", x_values)):
        state = ReducedState.from_nx(args.n, x)

        def build(state=state):
            u = _u_axis(state, nu, args.u_max)
            v = np.linspace(0.0, args.v_max, nv)
            surf = _dm.d_surface(state, u, v)
            return (("u", "v", "ln_d_norm"),
                    _io.tensor_table(u, v, surf.ln_d_norm),
                    {"u_max": float(u[-1]), "v_max": float(v[-1])})

        jobs[f"dsurface_x{tag}"] = build
    meta = {"n": args.n, "x": x_values, "grid_w": nu, "grid_h": nv}
    return jobs, meta


def _plan_fig4(args):
    x_values = _resolve_x(args)
    [nu] = args.grid
    states = [ReducedState.from_nx(args.n, x) for x in x_values]

    def build():
        top = (args.u_max if args.u_max is not None
               else max(float(_dm.default_grid(s, 2, 2)[0][-1]) for s in states))
        u = np.linspace(0.0, top, nu)
        curves = [_dm.d_surface(state, u, [0.0]).ln_d_norm[:, 0] for state in states]
        return (("x", "u", "ln_d_norm"),
                _io.tensor_table(x_values, u, curves),
                {"u_max": float(top)})

    meta = {"n": args.n, "x": x_values, "grid_w": nu}
    return {"dslices": build}, meta


def _plan_fig5(args):
    x_values = _resolve_x(args)
    nu, nr = args.grid
    jobs = {}
    for x, tag in zip(x_values, _tags("--x", x_values)):
        state = ReducedState.from_nx(args.n, x)

        def build(state=state):
            u = _u_axis(state, nu, args.u_max)
            r = np.linspace(0.0, args.r_max, nr)
            grid = _wig.wigner_grid(state, u, r)
            diag = _quad_diag(grid, u_max=float(u[-1]))
            return (("u", "r", "ln_w_norm", "spread"),
                    _io.tensor_table(u, r, grid.ln_w_norm, grid.spread), diag)

        jobs[f"wigner_x{tag}"] = build
    meta = {"n": args.n, "x": x_values, "grid_w": nu, "grid_h": nr,
            "r_max": args.r_max, "n_list": list(_wig.N_LIST)}
    return jobs, meta


# fig6's window corners reach r^2 ~ 7.2, where N r^2/4 at N = 40 would be
# far past the ~45-nat cancellation window; at N = 20 it is 36
_FIG6_N_LIST = (8, 12, 16, 20)


def _plan_fig6(args):
    [x] = _resolve_x(args)
    nphi, npi = args.grid
    jobs = {}
    for phi_s, tag in zip(args.phi, _tags("--phi", args.phi)):
        sq = _wig.SqueezeParams(n=args.n, gamma=args.gamma, phi=phi_s)
        state, big_a, rho = sq.reduced(x)
        # window: cover the ridge in phi; in pi follow the para-mode tilt
        # and add a few radial widths (delta_r^2 ~ 2 in reduced units)
        phi_max = (args.u_max if args.u_max is not None
                   else 1.3 * math.sqrt(big_a) * max(1.0, _dm.ridge_u(state)))
        pi_max = (args.r_max if args.r_max is not None
                  else abs(rho) * phi_max + 1.9 * math.sqrt(0.5 / big_a))
        for mode in args.mode:

            def build(sq=sq, mode=mode, phi_max=phi_max, pi_max=pi_max):
                phi_axis = np.linspace(-phi_max, phi_max, nphi)
                pi_axis = np.linspace(-pi_max, pi_max, npi)
                proj = _wig.project_physical(
                    sq, x, _wig.ProjectionMode(mode), phi_axis, pi_axis,
                    _FIG6_N_LIST)
                diag = _quad_diag(proj, phi_max=phi_max, pi_max=pi_max)
                return (("phi", "pi", "ln_w_norm"),
                        _io.tensor_table(phi_axis, pi_axis, proj.ln_w_norm),
                        diag)

            jobs[f"contours_phi{tag}_{mode}"] = build
    meta = {"n": args.n, "x": x, "gamma": args.gamma, "phi": args.phi,
            "mode": args.mode, "grid_w": nphi, "grid_h": npi,
            "n_list": list(_FIG6_N_LIST)}
    return jobs, meta


def _plan_fig7(args):
    [x] = _resolve_x(args)
    [nphi] = args.grid
    sq = _wig.SqueezeParams(n=args.n, gamma=args.gamma, phi=args.phi)
    state, big_a, _ = sq.reduced(x)
    phi0 = math.sqrt(big_a) * _dm.ridge_u(state)
    phi_max = (args.u_max if args.u_max is not None
               else 1.4 * max(phi0, math.sqrt(big_a)))

    def build():
        phi_axis = np.linspace(0.0, phi_max, nphi)
        pi_axis = np.array([0.0])
        proj = _wig.project_physical(
            sq, x, _wig.ProjectionMode(args.mode), phi_axis, pi_axis)
        diag = _quad_diag(proj, phi_max=phi_max, phi_peak=phi0)
        return (("phi", "pi", "ln_w_norm"),
                _io.tensor_table(phi_axis, pi_axis, proj.ln_w_norm), diag)

    meta = {"n": args.n, "x": x, "gamma": args.gamma, "phi": args.phi,
            "mode": args.mode, "grid_w": nphi, "n_list": list(_wig.N_LIST)}
    return {"slice": build}, meta


_PLANNERS = {
    "fig1_c4": _plan_fig1,
    "fig2_purity": _plan_fig2,
    "fig3_dsurface": _plan_fig3,
    "fig4_dslices": _plan_fig4,
    "fig5_wigner": _plan_fig5,
    "fig6_contours": _plan_fig6,
    "fig7_slice": _plan_fig7,
}


# ---------------------------------------------------------------------------
# execution and output

def _execute(jobs, threads, out_dir, fmt):
    """Run each builder, which returns (header, table, diag), and write its
    table: name -> (file, rows, diag), or the NgStateError of the build or
    of the write (a table holding NaN or inf), or the OSError of the write."""
    write = _io.write_csv if fmt == "csv" else _io.write_json_rows

    def run(name, build):
        try:
            header, table, diag = build()
            write(os.path.join(out_dir, f"{name}.{fmt}"), header, table)
            return f"{name}.{fmt}", len(table), diag
        except (NgStateError, OSError) as exc:
            return exc

    if threads == 1 or len(jobs) == 1:
        return {name: run(name, build) for name, build in jobs.items()}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {name: pool.submit(run, name, build)
                   for name, build in jobs.items()}
        return {name: fut.result() for name, fut in futures.items()}


def _cmd_figure(preset, args):
    try:
        jobs, meta = _PLANNERS[preset](args)
    except (ValueError, NgStateError) as exc:
        # a library constructor (state, squeeze, c4 inversion)
        # refused the configuration
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # an existing file, or a path under one
        print(f"error: --out {out_dir!r}: {exc.strerror}", file=sys.stderr)
        return 2
    results = _execute(jobs, args.threads, out_dir, args.format)

    meta.update({"preset": preset, "version": __version__,
                 "threads": args.threads, "format": args.format,
                 "tol": _wig.SPREAD_TOL, "out": out_dir})
    ok = True
    for name, result in results.items():
        if isinstance(result, Exception):
            meta[f"{name}.converged"] = False
            meta[f"{name}.error"] = str(result)
            ok = False
            continue
        filename, n_rows, diag = result
        meta[f"{name}.file"] = filename
        meta[f"{name}.rows"] = n_rows
        for key, value in diag.items():
            meta[f"{name}.{key}"] = value
        if diag.get("converged") is False:
            ok = False
    try:
        _io.write_metadata(os.path.join(out_dir, "meta.json"), meta)
    except OSError as exc:
        print(f"error: meta.json not written: {exc.strerror}", file=sys.stderr)
        return 1
    if not ok:
        print(f"warning: some artifacts failed or did not converge; "
              f"see {os.path.join(out_dir, 'meta.json')}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args):
    results = _orc.run_validation(quick=args.quick)
    print(_orc.format_report(results))
    return 0 if all(c.passed for c in results) else 1


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p, preset):
    p.add_argument("--out", default=f"ngstate_{preset}",
                   help="output directory (default: %(default)s)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="data file format (default: %(default)s)")
    p.add_argument("--threads", type=_count,
                   default=os.environ.get("NGSTATE_THREADS", "1"),
                   help="worker threads across artifacts "
                        "(default: NGSTATE_THREADS or 1)")


def _add_state(p, x_default, x_nargs="+"):
    """--n, then --x or --c4-ratio, of the single-n presets."""
    p.add_argument("--n", type=_positive, default=10.0,
                   help="occupation number (default: %(default)s)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--x", type=_nonneg, nargs=x_nargs, default=x_default,
                       help="nongaussianity (default: %(default)s)")
    group.add_argument("--c4-ratio", type=_finite,
                       help="set x through the four-point ratio instead of --x")


def _add_axes(p, grid, shape, u_help):
    p.add_argument("--grid", type=_grid(shape), default=grid,
                   help=f"resolution {shape} (default: %(default)s)")
    p.add_argument("--u-max", type=_positive, help=u_help)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ngstate",
        description="Figure-data presets and validation suite for the "
                    "non-Gaussian effective-state library.")
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = [float(v) for v in np.linspace(0.0, 20.0, 201)]
    slices = [0.0, 0.5, 1.0, 15.0]

    for preset, help_, n_default in (
            ("fig1_c4", "four-point ratio curves", [0.0, 1.0, 10.0]),
            ("fig2_purity", "purity ratio curves", [0.0, 0.1, 0.5, 1.0, 10.0])):
        p = sub.add_parser(preset, help=help_)
        p.add_argument("--n", type=_nonneg, nargs="+", default=n_default,
                       help="occupation numbers (default: %(default)s)")
        p.add_argument("--x", type=_nonneg, nargs="+", default=sweep,
                       help="nongaussianity grid (default: 201 points on [0, 20])")
        _add_common(p, preset)

    p = sub.add_parser("fig3_dsurface", help="matrix-element surfaces")
    _add_state(p, slices)
    _add_axes(p, "201x201", "WxH", "u-axis maximum (default: past the ridge)")
    p.add_argument("--v-max", type=_positive, default=4.0,
                   help="v-axis maximum (default: %(default)s)")
    _add_common(p, "fig3_dsurface")

    p = sub.add_parser("fig4_dslices", help="matrix-element v=0 slices")
    _add_state(p, slices)
    _add_axes(p, "201", "W", "u-axis maximum (default: past the widest ridge)")
    _add_common(p, "fig4_dslices")

    p = sub.add_parser("fig5_wigner", help="radial Wigner grids")
    _add_state(p, slices)
    _add_axes(p, "101x101", "WxH", "u-axis maximum (default: past the ridge)")
    p.add_argument("--r-max", type=_positive, default=2.0,
                   help="r-axis maximum (default: %(default)s)")
    _add_common(p, "fig5_wigner")

    p = sub.add_parser("fig6_contours", help="physical Wigner contours")
    _add_state(p, [15.0], x_nargs=1)
    p.add_argument("--gamma", type=_finite, default=0.9,
                   help="squeezing strength in [0, 1) (default: %(default)s)")
    p.add_argument("--phi", type=_finite, nargs="+", default=[0.0, math.pi],
                   help="squeeze angles, one panel pair each (default: 0 pi)")
    p.add_argument("--mode", choices=("para", "perp"), nargs=1,
                   default=["para", "perp"],
                   help="projection mode (default: both)")
    _add_axes(p, "41x41", "WxH", "phi-axis maximum (default: automatic window)")
    p.add_argument("--r-max", type=_positive,
                   help="pi-axis maximum (default: automatic window)")
    _add_common(p, "fig6_contours")

    p = sub.add_parser("fig7_slice", help="strong-nongaussianity Wigner slice")
    _add_state(p, [3000.0], x_nargs=1)
    p.add_argument("--gamma", type=_finite, default=0.0,
                   help="squeezing strength in [0, 1) (default: %(default)s)")
    p.add_argument("--phi", type=_finite, default=0.0,
                   help="squeeze angle (default: %(default)s)")
    p.add_argument("--mode", choices=("para", "perp"), default="para",
                   help="projection mode (default: %(default)s)")
    _add_axes(p, "201", "W", "phi-axis maximum (default: 1.4x the peak phi)")
    _add_common(p, "fig7_slice")

    p = sub.add_parser("validate", help="run the invariant suite")
    p.add_argument("--quick", action="store_true",
                   help="reduced mode-sum cutoff; finishes in seconds")

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a refused flag (2)
        return exc.code
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_figure(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
