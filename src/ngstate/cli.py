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
wigner.SPREAD_TOL (meta's tol).  A fig3 or fig4 artifact records as
fallbacks the grid points that densmat.d_surface's kernel table sent to
the root-finder (0 at every default grid).

Each flag's default and valid range are set once, in build_parser()
(`ngstate <preset> --help` shows the defaults): its argparse type refuses
values out of range, and the library's constructors refuse the rest
(--gamma, --phi, --c4-ratio, an (n, x) out of range) when a planner
builds its objects.  An axis maximum left unset takes the preset's
default window, set here alone, in units of the ridge's u scale
densmat.ridge_u.

Artifacts are built one at a time, in order.  The fig5 and fig6 planners
make one memo per run, which their jobs share, to build each Bessel row
and ln d row once (wigner.wigner_grid); rows are keyed exactly, a row is
the same whichever job builds it, and the memo is dropped with the jobs
when the run ends.
"""

import argparse
import math
import os
import sys
from functools import cache, partial

import numpy as np

from . import __version__
from . import densmat as _dm
from . import gridio as _io
from . import observables as _obs
from . import oracle as _orc
from . import wigner as _wig
from .errors import NgStateError
from .statemap import ReducedState, x_from_c4


def _tags(flag, values):
    """File-name token of each value (0.5 -> '0p5'); refuses two values
    that would share a file."""
    tags = [_io.format_number(float(v)).replace(".", "p").replace("-", "m")
            for v in values]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ValueError(f"{flag} values {values[tags.index(tag)]!r} and "
                             f"{values[i]!r} share the file-name token {tag!r}")
    return tags


def _number(low=-math.inf, strict=False):
    """argparse type: float(text), refused unless finite and >= low (> low
    when strict)."""
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"

    def parse(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"expected a finite float{bound}, got {text!r}")
        return value
    return parse


_finite = _number()
_nonneg = _number(0.0)
_positive = _number(0.0, strict=True)


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


def _quad_diag(result, **extra):
    """The preset's own diagnostics, then the quadrature and convergence
    fields of a WignerGrid or ProjectionGrid, judged as ln_w judges them."""
    spread_max = float(np.max(result.spread))
    return {**extra, "max_spread": spread_max, "converged": spread_max <= _wig.SPREAD_TOL,
            "quad_v_max": result.v_max, "quad_points": result.quad_points}


# ---------------------------------------------------------------------------
# preset planners: args -> ({artifact name: builder}, shared metadata)

def _plan_sweep(name, fields, values, args):
    """fig1/fig2: one table over every (n, x) of --n and --x, its fields
    values(n list, x list), each of shape (n count, x count)."""
    def build():
        return (("n", "x", *fields),
                _io.tensor_table(args.n, args.x, *values(args.n, args.x)), {})
    return {name: build}, {"n": args.n, "x": args.x}


def _c4_ratio(n_values, x_values):
    return [[[_obs.c4_half_ratio_nx(n, x) for x in x_values] for n in n_values]]


def _purity(n_values, x_values):
    # n = 0 is the pure-state limit: the purity stays 1 for every x
    p = np.ones((3, len(n_values), len(x_values)))
    rows = [i for i, n in enumerate(n_values) if n != 0.0]
    rep = _obs.purity_many([ReducedState.from_nx(n_values[i], x)
                            for i in rows for x in x_values])
    p[:, rows] = np.reshape([rep.p, rep.p_gaussian, rep.ratio],
                            (3, len(rows), len(x_values)))
    return p


def _per_x(args, prefix=None):
    """(x values, states, job names) of a single-n preset: each --x, or
    the x that --c4-ratio sets.  The states are built here, so a refused
    one exits 2 before any file is written.  With a prefix each x names
    one job, prefix_x<tag>, and x that would share a file are refused."""
    xs = args.x if args.c4_ratio is None else [x_from_c4(args.n, args.c4_ratio)]
    names = [f"{prefix}_x{tag}" for tag in _tags("--x", xs)] if prefix else None
    return xs, [ReducedState.from_nx(args.n, x) for x in xs], names


def _u_max(args, state):
    """fig3-fig5 u-axis maximum: --u-max, else past the ridge (fig6 and
    fig7 set their windows in their planners)."""
    return args.u_max if args.u_max is not None else 1.5 * max(1.0, _dm.ridge_u(state))


def _projection(sq, x, mode, phi_axis, pi_axis, n_list, memo=None, **extra):
    """fig6/fig7 builder: ln w of one projection mode over (phi, pi), with
    the run's memo (see wigner.wigner_grid) if one is given."""
    def build():
        proj = _wig.project_physical(sq, x, _wig.ProjectionMode(mode),
                                     phi_axis, pi_axis, n_list, memo=memo)
        return (("phi", "pi", "ln_w_norm"),
                _io.tensor_table(phi_axis, pi_axis, proj.ln_w_norm),
                _quad_diag(proj, **extra))
    return build


def _plan_fig3(args):
    nu, nv = args.grid
    xs, states, names = _per_x(args, "dsurface")

    def build(state):
        u = np.linspace(0.0, _u_max(args, state), nu)
        v = np.linspace(0.0, args.v_max, nv)
        surf = _dm.d_surface(state, u, v)
        return (("u", "v", "ln_d_norm"), _io.tensor_table(u, v, surf.ln_d_norm),
                {"u_max": float(u[-1]), "v_max": float(v[-1]), "fallbacks": surf.fallbacks})

    jobs = {name: partial(build, state) for name, state in zip(names, states)}
    return jobs, {"n": args.n, "x": xs, "grid_w": nu, "grid_h": nv}


def _plan_fig4(args):
    [nu] = args.grid
    xs, states, _ = _per_x(args)

    def build():
        u = np.linspace(0.0, max(_u_max(args, state) for state in states), nu)
        surfs = [_dm.d_surface(state, u, [0.0]) for state in states]
        return (("x", "u", "ln_d_norm"),
                _io.tensor_table(xs, u, [surf.ln_d_norm[:, 0] for surf in surfs]),
                {"u_max": float(u[-1]), "fallbacks": sum(surf.fallbacks for surf in surfs)})

    return {"dslices": build}, {"n": args.n, "x": xs, "grid_w": nu}


def _plan_fig5(args):
    nu, nr = args.grid
    xs, states, names = _per_x(args, "wigner")
    memo = {}  # one per run: at the defaults the x share their mesh's Bessel rows

    def build(state):
        u = np.linspace(0.0, _u_max(args, state), nu)
        r = np.linspace(0.0, args.r_max, nr)
        grid = _wig.wigner_grid(state, u, r, memo=memo)
        return (("u", "r", "ln_w_norm", "spread"),
                _io.tensor_table(u, r, grid.ln_w_norm, grid.spread),
                _quad_diag(grid, u_max=float(u[-1])))

    jobs = {name: partial(build, state) for name, state in zip(names, states)}
    meta = {"n": args.n, "x": xs, "grid_w": nu, "grid_h": nr,
            "r_max": args.r_max, "n_list": list(_wig.N_LIST)}
    return jobs, meta


# fig6's window corners reach r^2 ~ 7.2, where N r^2/4 at N = 40 would be
# far past the ~45-nat cancellation window; at N = 20 it is 36
_FIG6_N_LIST = (8, 12, 16, 20)


def _plan_fig6(args):
    [x], [state], _ = _per_x(args)
    nphi, npi = args.grid
    jobs, memo = {}, {}  # a para/perp pair shares its mesh and ln d rows
    for phi_s, tag in zip(args.phi, _tags("--phi", args.phi)):
        sq = _wig.SqueezeParams(n=args.n, gamma=args.gamma, phi=phi_s)
        _, big_a, rho = sq.reduced(x)
        # window: cover the ridge in phi; in pi follow the para-mode tilt
        # and add a few radial widths (delta_r^2 ~ 2 in reduced units)
        phi_max = (args.u_max if args.u_max is not None
                   else 1.3 * math.sqrt(big_a) * max(1.0, _dm.ridge_u(state)))
        pi_max = (args.r_max if args.r_max is not None
                  else abs(rho) * phi_max + 1.9 * math.sqrt(0.5 / big_a))
        axes = (np.linspace(-phi_max, phi_max, nphi), np.linspace(-pi_max, pi_max, npi))
        for mode in args.mode:
            jobs[f"contours_phi{tag}_{mode}"] = _projection(
                sq, x, mode, *axes, _FIG6_N_LIST, memo, phi_max=phi_max, pi_max=pi_max)
    meta = {"n": args.n, "x": x, "gamma": args.gamma, "phi": args.phi, "mode": args.mode,
            "grid_w": nphi, "grid_h": npi, "n_list": list(_FIG6_N_LIST)}
    return jobs, meta


def _plan_fig7(args):
    [x], [state], _ = _per_x(args)
    [nphi] = args.grid
    sq = _wig.SqueezeParams(n=args.n, gamma=args.gamma, phi=args.phi)
    big_a = sq.reduced(x)[1]
    phi0 = math.sqrt(big_a) * _dm.ridge_u(state)
    phi_max = (args.u_max if args.u_max is not None
               else 1.4 * max(phi0, math.sqrt(big_a)))
    build = _projection(sq, x, args.mode, np.linspace(0.0, phi_max, nphi),
                        np.array([0.0]), _wig.N_LIST, phi_max=phi_max, phi_peak=phi0)
    meta = {"n": args.n, "x": x, "gamma": args.gamma, "phi": args.phi,
            "mode": args.mode, "grid_w": nphi, "n_list": list(_wig.N_LIST)}
    return {"slice": build}, meta


_PLANNERS = {
    "fig1_c4": partial(_plan_sweep, "c4_ratio", ("c4_ratio",), _c4_ratio),
    "fig2_purity": partial(_plan_sweep, "purity", ("p", "p_gaussian", "ratio"), _purity),
    "fig3_dsurface": _plan_fig3,
    "fig4_dslices": _plan_fig4,
    "fig5_wigner": _plan_fig5,
    "fig6_contours": _plan_fig6,
    "fig7_slice": _plan_fig7,
}


# ---------------------------------------------------------------------------
# execution and output

def _cmd_figure(preset, args):
    try:
        jobs, meta = _PLANNERS[preset](args)
    except (ValueError, NgStateError) as exc:  # a library constructor refused it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir, fmt = args.out, args.format
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # an existing file, or a path under one
        print(f"error: --out {out_dir!r}: {exc.strerror}", file=sys.stderr)
        return 2

    meta.update({"preset": preset, "version": __version__, "format": fmt,
                 "tol": _wig.SPREAD_TOL, "out": out_dir})
    write = _io.write_csv if fmt == "csv" else _io.write_json_rows
    ok = True
    for name, build in jobs.items():
        # each builder returns (header, table, diag); the build, or the write
        # (a table holding NaN or inf, an OSError), may fail the artifact alone
        try:
            header, table, diag = build()
            write(os.path.join(out_dir, f"{name}.{fmt}"), header, table)
            fields = {"file": f"{name}.{fmt}", "rows": len(table), **diag}
        except (NgStateError, OSError) as exc:
            fields = {"converged": False, "error": str(exc)}
        meta.update({f"{name}.{key}": value for key, value in fields.items()})
        ok = ok and fields.get("converged") is not False
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
    p.add_argument("--threads", type=int, choices=(1,), default=1,
                   help="artifacts are built one at a time; the flag is kept "
                        "for scripts that pass --threads 1")


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


@cache  # one per process; each main call parses with it
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
