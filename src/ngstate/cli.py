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

Exit codes: 0 success; 1 a computation failed or did not converge
(completed artifacts are still written and flagged in meta.json);
2 invalid configuration.

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
from importlib import metadata as _ilmd

import numpy as np

from . import densmat as _dm
from . import gridio as _io
from . import observables as _obs
from . import oracle as _orc
from . import wigner as _wig
from .errors import ConfigError, NgStateError
from .statemap import ReducedState, x_from_c4

_SWEEP_X = tuple(float(v) for v in np.linspace(0.0, 20.0, 201))
_FIG1_N = (0.0, 1.0, 10.0)
_FIG2_N = (0.0, 0.1, 0.5, 1.0, 10.0)
_SLICE_X = (0.0, 0.5, 1.0, 15.0)
_FIG6_PHI = (0.0, math.pi)
_FIG6_N_LIST = (4, 8, 12, 16, 20)


def _version():
    try:
        return _ilmd.version("artifact")
    except _ilmd.PackageNotFoundError:
        return "0.0.0"


def _tag(value):
    """File-name token for a parameter value: 0.5 -> '0p5'."""
    return _io.format_number(float(value)).replace(".", "p").replace("-", "m")


def _resolve_threads(args):
    if args.threads is not None:
        value = args.threads
    else:
        raw = os.environ.get("NGSTATE_THREADS", "1")
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"NGSTATE_THREADS must be an integer, got {raw!r}")
    if value < 1:
        raise ConfigError("--threads must be >= 1")
    return value


def _finite_float(text):
    """argparse type for every float flag: nan and inf are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_grid(text, default):
    if text is None:
        return default
    try:
        dims = [int(p) for p in text.lower().split("x")]
    except ValueError:
        dims = []
    if len(dims) == 1:
        dims.append(1)
    if len(dims) != 2 or dims[0] < 2 or dims[1] < 1:
        raise ConfigError(f"--grid expects WxH with W >= 2, H >= 1, got {text!r}")
    return dims[0], dims[1]


def _single_n(args, default):
    n = args.n if args.n is not None else default
    if n <= 0.0:
        raise ConfigError("this preset needs n > 0")
    return float(n)


def _resolve_x(args, default_x, n_for_ratio):
    has_x = args.x is not None
    has_ratio = getattr(args, "c4_ratio", None) is not None
    if has_x and has_ratio:
        raise ConfigError("give exactly one of --x and --c4-ratio")
    if has_ratio:
        try:
            return [x_from_c4(n_for_ratio, args.c4_ratio)]
        except (ValueError, NgStateError) as exc:
            raise ConfigError(str(exc))
    xs = [float(v) for v in (args.x if has_x else default_x)]
    if any(x < 0.0 for x in xs):
        raise ConfigError("--x values must be >= 0")
    return xs


def _wigner_settings(args, default_n_list=None):
    kwargs = {"spread_tol": args.tol}
    n_list = args.n_list if args.n_list is not None else default_n_list
    if n_list is not None:
        kwargs["n_list"] = tuple(n_list)
    if args.v_max is not None:
        kwargs["v_max"] = args.v_max
    try:
        return _wig.WignerSettings(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _u_peak(state):
    """u at the off-origin ridge maximum, or 1 when there is none."""
    if _dm.classify_regime(state) is _dm.Regime.PEAKED:
        return math.sqrt(_dm.u_c_sq(state, 0.0))
    return 1.0


def _quad_diag(result, tol, **extra):
    """The preset's own diagnostics, then the quadrature and convergence
    fields of a WignerGrid or ProjectionGrid."""
    spread_max = float(np.max(result.spread))
    return {**extra, "max_spread": spread_max, "converged": spread_max <= tol,
            "quad_v_max": result.v_max, "quad_points": result.quad_points}


def _u_axis(state, nu, u_max):
    if u_max is not None:
        return np.linspace(0.0, u_max, nu)
    return _dm.default_grid(state, nu, 2)[0]


# ---------------------------------------------------------------------------
# preset planners: args -> ({artifact name: builder}, shared metadata)

def _plan_fig1(args):
    n_values = [float(v) for v in (args.n if args.n is not None else _FIG1_N)]
    if any(n < 0.0 for n in n_values):
        raise ConfigError("--n values must be >= 0")
    x_values = _resolve_x(args, _SWEEP_X, None)

    def build():
        ratio = [[_obs.c4_ratio_small_n(x) if n == 0.0
                  else _obs.c4_half_ratio_nx(n, x) for x in x_values]
                 for n in n_values]
        return (("n", "x", "c4_ratio"),
                _io.tensor_table(n_values, x_values, ratio), {})

    return {"c4_ratio": build}, {"n": n_values, "x": x_values}


def _plan_fig2(args):
    n_values = [float(v) for v in (args.n if args.n is not None else _FIG2_N)]
    if any(n < 0.0 for n in n_values):
        raise ConfigError("--n values must be >= 0")
    x_values = _resolve_x(args, _SWEEP_X, None)

    def build():
        # n = 0 is the pure-state limit: the purity stays 1 for every x
        p = np.ones((3, len(n_values), len(x_values)))
        for i, n in enumerate(n_values):
            for k, x in enumerate(x_values):
                if n != 0.0:
                    rep = _obs.purity(ReducedState.from_nx(n, x))
                    p[:, i, k] = rep.p, rep.p_gaussian, rep.ratio
        return (("n", "x", "p", "p_gaussian", "ratio"),
                _io.tensor_table(n_values, x_values, *p), {})

    return {"purity": build}, {"n": n_values, "x": x_values}


def _plan_fig3(args):
    n = _single_n(args, 10.0)
    x_values = _resolve_x(args, _SLICE_X, n)
    nu, nv = _parse_grid(args.grid, (201, 201))
    if nv < 2:
        raise ConfigError("fig3_dsurface needs a two-dimensional --grid")
    v_top = args.v_max if args.v_max is not None else 4.0
    jobs = {}
    for x in x_values:
        state = ReducedState.from_nx(n, x)

        def build(state=state):
            u = _u_axis(state, nu, args.u_max)
            v = np.linspace(0.0, v_top, nv)
            surf = _dm.d_surface(state, u, v)
            return (("u", "v", "ln_d_norm"),
                    _io.tensor_table(u, v, surf.ln_d_norm),
                    {"u_max": float(u[-1]), "v_max": float(v[-1])})

        jobs[f"dsurface_x{_tag(x)}"] = build
    meta = {"n": n, "x": x_values, "grid_w": nu, "grid_h": nv}
    return jobs, meta


def _plan_fig4(args):
    n = _single_n(args, 10.0)
    x_values = _resolve_x(args, _SLICE_X, n)
    nu, _ = _parse_grid(args.grid, (201, 1))
    states = [ReducedState.from_nx(n, x) for x in x_values]

    def build():
        if args.u_max is not None:
            top = args.u_max
        else:
            top = max(float(_dm.default_grid(s, 2, 2)[0][-1]) for s in states)
        u = np.linspace(0.0, top, nu)
        curves = [_dm.ln_d_many(state, u * u, 0.0) for state in states]
        return (("x", "u", "ln_d_norm"),
                _io.tensor_table(x_values, u, [c - c.max() for c in curves]),
                {"u_max": float(top)})

    meta = {"n": n, "x": x_values, "grid_w": nu}
    return {"dslices": build}, meta


def _plan_fig5(args):
    n = _single_n(args, 10.0)
    x_values = _resolve_x(args, _SLICE_X, n)
    nu, nr = _parse_grid(args.grid, (101, 101))
    if nr < 2:
        raise ConfigError("fig5_wigner needs a two-dimensional --grid")
    r_max = args.r_max if args.r_max is not None else 2.0
    if r_max <= 0.0:
        raise ConfigError("--r-max must be positive")
    settings = _wigner_settings(args)
    jobs = {}
    for x in x_values:
        state = ReducedState.from_nx(n, x)

        def build(state=state):
            u = _u_axis(state, nu, args.u_max)
            r = np.linspace(0.0, r_max, nr)
            grid = _wig.wigner_grid(state, u, r, settings)
            diag = _quad_diag(grid, args.tol, u_max=float(u[-1]))
            return (("u", "r", "ln_w_norm", "spread"),
                    _io.tensor_table(u, r, grid.ln_w_norm, grid.spread), diag)

        jobs[f"wigner_x{_tag(x)}"] = build
    meta = {"n": n, "x": x_values, "grid_w": nu, "grid_h": nr,
            "r_max": r_max, "n_list": list(settings.n_list)}
    return jobs, meta


def _plan_fig6(args):
    n = _single_n(args, 10.0)
    x_values = _resolve_x(args, (15.0,), n)
    if len(x_values) != 1:
        raise ConfigError("fig6_contours takes a single --x (or --c4-ratio)")
    x = x_values[0]
    gamma = args.gamma if args.gamma is not None else 0.9
    phi_values = [float(v) for v in (args.phi if args.phi else _FIG6_PHI)]
    modes = [args.mode] if args.mode else ["para", "perp"]
    nphi, npi = _parse_grid(args.grid, (41, 41))
    if npi < 2:
        raise ConfigError("fig6_contours needs a two-dimensional --grid")
    settings = _wigner_settings(args, default_n_list=_FIG6_N_LIST)
    state = ReducedState.from_nx(n, x)
    u_top = max(1.0, _u_peak(state))
    jobs = {}
    for phi_s in phi_values:
        try:
            sq = _wig.SqueezeParams(n=n, gamma=gamma, phi=phi_s)
        except ValueError as exc:
            raise ConfigError(str(exc))
        m = sq.moments()
        big_a = state.kappa * m.F
        rho = m.R / m.F
        # window: cover the ridge in phi; in pi follow the para-mode tilt
        # and add a few radial widths (delta_r^2 ~ 2 in reduced units)
        phi_max = (args.u_max if args.u_max is not None
                   else 1.3 * math.sqrt(big_a) * u_top)
        pi_max = (args.r_max if args.r_max is not None
                  else abs(rho) * phi_max + 1.9 * math.sqrt(0.5 / big_a))
        for mode in modes:

            def build(sq=sq, mode=mode, phi_max=phi_max, pi_max=pi_max):
                phi_axis = np.linspace(-phi_max, phi_max, nphi)
                pi_axis = np.linspace(-pi_max, pi_max, npi)
                proj = _wig.project_physical(
                    sq, x, _wig.ProjectionMode(mode), phi_axis, pi_axis,
                    settings)
                diag = _quad_diag(proj, args.tol, phi_max=phi_max,
                                  pi_max=pi_max)
                return (("phi", "pi", "ln_w_norm"),
                        _io.tensor_table(phi_axis, pi_axis, proj.ln_w_norm),
                        diag)

            jobs[f"contours_phi{_tag(phi_s)}_{mode}"] = build
    meta = {"n": n, "x": x, "gamma": gamma, "phi": phi_values,
            "mode": modes, "grid_w": nphi, "grid_h": npi,
            "n_list": list(settings.n_list)}
    return jobs, meta


def _plan_fig7(args):
    n = _single_n(args, 10.0)
    x_values = _resolve_x(args, (3000.0,), n)
    if len(x_values) != 1:
        raise ConfigError("fig7_slice takes a single --x (or --c4-ratio)")
    x = x_values[0]
    gamma = args.gamma if args.gamma is not None else 0.0
    phi_s = args.phi if args.phi is not None else 0.0
    mode = args.mode or "para"
    nphi, _ = _parse_grid(args.grid, (201, 1))
    settings = _wigner_settings(args)
    state = ReducedState.from_nx(n, x)
    try:
        sq = _wig.SqueezeParams(n=n, gamma=gamma, phi=phi_s)
    except ValueError as exc:
        raise ConfigError(str(exc))
    m = sq.moments()
    big_a = state.kappa * m.F
    phi0 = math.sqrt(big_a) * _u_peak(state)
    phi_max = (args.u_max if args.u_max is not None
               else 1.4 * max(phi0, math.sqrt(big_a)))

    def build():
        phi_axis = np.linspace(0.0, phi_max, nphi)
        pi_axis = np.array([0.0])
        proj = _wig.project_physical(
            sq, x, _wig.ProjectionMode(mode), phi_axis, pi_axis, settings)
        diag = _quad_diag(proj, args.tol, phi_max=phi_max, phi_peak=phi0)
        return (("phi", "pi", "ln_w_norm"),
                _io.tensor_table(phi_axis, pi_axis, proj.ln_w_norm), diag)

    meta = {"n": n, "x": x, "gamma": gamma, "phi": phi_s, "mode": mode,
            "grid_w": nphi, "n_list": list(settings.n_list)}
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
    of the write (a table holding NaN or inf)."""
    write = _io.write_csv if fmt == "csv" else _io.write_json_rows

    def run(name, build):
        try:
            header, table, diag = build()
            write(os.path.join(out_dir, f"{name}.{fmt}"), header, table)
            return f"{name}.{fmt}", len(table), diag
        except NgStateError as exc:
            return exc

    if threads == 1 or len(jobs) == 1:
        return {name: run(name, build) for name, build in jobs.items()}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {name: pool.submit(run, name, build)
                   for name, build in jobs.items()}
        return {name: fut.result() for name, fut in futures.items()}


def _cmd_figure(preset, args):
    if args.tol is not None and args.tol <= 0.0:
        raise ConfigError("--tol must be positive")
    threads = _resolve_threads(args)
    jobs, meta = _PLANNERS[preset](args)
    out_dir = args.out if args.out is not None else f"ngstate_{preset}"
    os.makedirs(out_dir, exist_ok=True)
    results = _execute(jobs, threads, out_dir, args.format)

    meta.update({"preset": preset, "version": _version(), "threads": threads,
                 "format": args.format, "tol": args.tol, "out": out_dir})
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
    _io.write_metadata(os.path.join(out_dir, "meta.json"), meta)
    if not ok:
        print(f"warning: some artifacts failed or did not converge; "
              f"see {os.path.join(out_dir, 'meta.json')}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args):
    results = _orc.run_validation(quick=args.quick,
                                  corrupt_kappa=args.corrupt_kappa)
    print(_orc.format_report(results))
    return 0 if all(c.passed for c in results) else 1


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p):
    p.add_argument("--out", help="output directory (default: ngstate_<preset>)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="data file format (default: csv)")
    p.add_argument("--threads", type=int,
                   help="worker threads across artifacts "
                        "(default: NGSTATE_THREADS or 1)")
    p.add_argument("--tol", type=_finite_float, default=1e-3,
                   help="convergence spread tolerance (default: 1e-3)")


def _add_wigner_flags(p):
    p.add_argument("--N-list", dest="n_list", type=int, nargs="+",
                   help="even dof counts for the large-N extrapolation")
    p.add_argument("--v-max", type=_finite_float,
                   help="quadrature cutoff override (default: automatic)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ngstate",
        description="Figure-data presets and validation suite for the "
                    "non-Gaussian effective-state library.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1_c4", help="four-point ratio curves")
    p.add_argument("--n", type=_finite_float, nargs="+",
                   help="occupation numbers (default: 0 1 10)")
    p.add_argument("--x", type=_finite_float, nargs="+",
                   help="nongaussianity grid (default: 201 points on [0, 20])")
    _add_common(p)

    p = sub.add_parser("fig2_purity", help="purity ratio curves")
    p.add_argument("--n", type=_finite_float, nargs="+",
                   help="occupation numbers (default: 0 0.1 0.5 1 10)")
    p.add_argument("--x", type=_finite_float, nargs="+",
                   help="nongaussianity grid (default: 201 points on [0, 20])")
    _add_common(p)

    p = sub.add_parser("fig3_dsurface", help="matrix-element surfaces")
    p.add_argument("--n", type=_finite_float, help="occupation number (default: 10)")
    p.add_argument("--x", type=_finite_float, nargs="+",
                   help="nongaussianity values (default: 0 0.5 1 15)")
    p.add_argument("--c4-ratio", type=_finite_float,
                   help="set x through the four-point ratio instead of --x")
    p.add_argument("--grid", help="u x v resolution WxH (default: 201x201)")
    p.add_argument("--u-max", type=_finite_float,
                   help="u-axis maximum (default: past the ridge)")
    p.add_argument("--v-max", type=_finite_float, help="v-axis maximum (default: 4)")
    _add_common(p)

    p = sub.add_parser("fig4_dslices", help="matrix-element v=0 slices")
    p.add_argument("--n", type=_finite_float, help="occupation number (default: 10)")
    p.add_argument("--x", type=_finite_float, nargs="+",
                   help="nongaussianity values (default: 0 0.5 1 15)")
    p.add_argument("--c4-ratio", type=_finite_float,
                   help="set x through the four-point ratio instead of --x")
    p.add_argument("--grid", help="u resolution W or WxH (default: 201)")
    p.add_argument("--u-max", type=_finite_float,
                   help="u-axis maximum (default: past the widest ridge)")
    _add_common(p)

    p = sub.add_parser("fig5_wigner", help="radial Wigner grids")
    p.add_argument("--n", type=_finite_float, help="occupation number (default: 10)")
    p.add_argument("--x", type=_finite_float, nargs="+",
                   help="nongaussianity values (default: 0 0.5 1 15)")
    p.add_argument("--c4-ratio", type=_finite_float,
                   help="set x through the four-point ratio instead of --x")
    p.add_argument("--grid", help="u x r resolution WxH (default: 101x101)")
    p.add_argument("--u-max", type=_finite_float,
                   help="u-axis maximum (default: past the ridge)")
    p.add_argument("--r-max", type=_finite_float,
                   help="r-axis maximum (default: 2)")
    _add_wigner_flags(p)
    _add_common(p)

    p = sub.add_parser("fig6_contours", help="physical Wigner contours")
    p.add_argument("--n", type=_finite_float, help="occupation number (default: 10)")
    p.add_argument("--x", type=_finite_float, nargs="+",
                   help="nongaussianity (default: 15)")
    p.add_argument("--c4-ratio", type=_finite_float,
                   help="set x through the four-point ratio instead of --x")
    p.add_argument("--gamma", type=_finite_float,
                   help="squeezing strength in [0, 1) (default: 0.9)")
    p.add_argument("--phi", type=_finite_float, nargs="+",
                   help="squeeze angles, one panel pair each (default: 0 pi)")
    p.add_argument("--mode", choices=("para", "perp"),
                   help="projection mode (default: both)")
    p.add_argument("--grid", help="phi x pi resolution WxH (default: 41x41)")
    p.add_argument("--u-max", type=_finite_float,
                   help="phi-axis maximum (default: automatic window)")
    p.add_argument("--r-max", type=_finite_float,
                   help="pi-axis maximum (default: automatic window)")
    _add_wigner_flags(p)
    _add_common(p)

    p = sub.add_parser("fig7_slice", help="strong-nongaussianity Wigner slice")
    p.add_argument("--n", type=_finite_float, help="occupation number (default: 10)")
    p.add_argument("--x", type=_finite_float, nargs="+",
                   help="nongaussianity (default: 3000, i.e. x >> n^2)")
    p.add_argument("--c4-ratio", type=_finite_float,
                   help="set x through the four-point ratio instead of --x")
    p.add_argument("--gamma", type=_finite_float,
                   help="squeezing strength in [0, 1) (default: 0)")
    p.add_argument("--phi", type=_finite_float,
                   help="squeeze angle (default: 0)")
    p.add_argument("--mode", choices=("para", "perp"),
                   help="projection mode (default: para)")
    p.add_argument("--grid", help="phi resolution W (default: 201)")
    p.add_argument("--u-max", type=_finite_float,
                   help="phi-axis maximum (default: 1.4x the peak phi)")
    _add_wigner_flags(p)
    _add_common(p)

    p = sub.add_parser("validate", help="run the invariant suite")
    p.add_argument("--quick", action="store_true",
                   help="reduced mode-sum cutoff; finishes in seconds")
    p.add_argument("--corrupt-kappa", action="store_true",
                   help=argparse.SUPPRESS)  # negative-control test hook

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_figure(args.command, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
