"""End-to-end tests of the command-line front end (in-process main())."""

import argparse
import contextlib
import copy
import csv
import importlib.util
import io
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import ngstate
from ngstate import cli, observables, wigner
from ngstate import oracle as orc
from ngstate.statemap import (OperatorParams, ReducedState, moments_from_params,
                              x_from_c4)


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def _read_meta(out_dir):
    with open(out_dir / "meta.json") as fh:
        return json.load(fh)


def test_validate_quick(capsys):
    assert cli.main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "0 failed" in out


def test_validate_corrupt_hook(capsys, monkeypatch):
    # negative control: moments from a mis-scaled kappa must fail the run
    def moments(p):
        return moments_from_params(OperatorParams(
            A=1.001 * p.A, B=1.001 * p.B, C=1.001 * p.C, eta=p.eta))
    monkeypatch.setattr(orc, "moments_from_params", moments)
    assert cli.main(["validate", "--quick"]) == 1
    out = capsys.readouterr().out
    assert [ln.split()[0] for ln in out.splitlines() if ln.endswith("FAIL")] \
        == ["moments-roundtrip"]
    assert cli.main(["validate", "--quick", "--corrupt-kappa"]) == 2


def test_fig1_defaults(tmp_path):
    out = tmp_path / "f1"
    assert cli.main(["fig1_c4", "--out", str(out)]) == 0
    header, rows = _read_csv(out / "c4_ratio.csv")
    assert header == ["n", "x", "c4_ratio"]
    assert len(rows) == 3 * 201
    assert all(-1.0 <= r[2] <= 0.0 for r in rows)
    # n = 10 endpoint sits near the saturating large-n curve
    tail = [r for r in rows if r[0] == 10.0 and r[1] == 20.0]
    assert tail and tail[0][2] == pytest.approx(-40.0 / 41.0, rel=0.02)
    # the n = 0 rows are the small-n limit
    zero = [r[2] for r in rows if r[0] == 0.0]
    assert zero == pytest.approx([observables.c4_ratio_small_n(x)
                                  for x in np.linspace(0.0, 20.0, 201)], rel=1e-8)
    meta = _read_meta(out)
    assert meta["preset"] == "fig1_c4"
    assert meta["c4_ratio.rows"] == 603


def test_fig2_values(tmp_path):
    out = tmp_path / "f2"
    assert cli.main(["fig2_purity", "--n", "0", "1", "--x", "0", "1", "5",
                     "--out", str(out)]) == 0
    header, rows = _read_csv(out / "purity.csv")
    assert header == ["n", "x", "p", "p_gaussian", "ratio"]
    assert len(rows) == 6
    by_key = {(r[0], r[1]): r for r in rows}
    assert by_key[(1.0, 0.0)][2] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert all(r[0] != 0.0 or r[4] == 1.0 for r in rows)
    assert all(math.sqrt(2.0 / math.e) < r[4] <= 1.0 for r in rows)


def test_fig3_surface(tmp_path):
    out = tmp_path / "f3"
    assert cli.main(["fig3_dsurface", "--x", "15", "--grid", "21x21",
                     "--out", str(out)]) == 0
    header, rows = _read_csv(out / "dsurface_x15.csv")
    assert header == ["u", "v", "ln_d_norm"]
    assert len(rows) == 441
    assert max(r[2] for r in rows) == 0.0
    meta = _read_meta(out)
    assert meta["dsurface_x15.u_max"] > 0.0


def test_fig4_gaussian_slice_peaks_at_origin(tmp_path):
    out = tmp_path / "f4"
    assert cli.main(["fig4_dslices", "--x", "0", "1", "--grid", "41",
                     "--out", str(out)]) == 0
    _, rows = _read_csv(out / "dslices.csv")
    gauss = [r for r in rows if r[0] == 0.0]
    assert len(gauss) == 41
    assert gauss[0][2] == 0.0                      # max at u = 0
    assert all(a[2] >= b[2] for a, b in zip(gauss, gauss[1:]))


def test_fig5_gaussian_grid_matches_exact(tmp_path):
    out = tmp_path / "f5"
    assert cli.main(["fig5_wigner", "--x", "0", "--grid", "11x11",
                     "--out", str(out)]) == 0
    header, rows = _read_csv(out / "wigner_x0.csv")
    assert header == ["u", "r", "ln_w_norm", "spread"]
    assert len(rows) == 121
    st = ReducedState.from_nx(10.0, 0.0)
    u = np.array([r[0] for r in rows])
    r_ = np.array([r[1] for r in rows])
    want = wigner.ln_w_gaussian_exact(st, u * u, r_ * r_)
    want = want - want.max()
    got = np.array([r[2] for r in rows])
    assert np.max(np.abs(got - want)) < 1e-6
    meta = _read_meta(out)
    assert meta["wigner_x0.converged"] is True
    assert meta["wigner_x0.max_spread"] < 1e-3


def test_fig6_single_panel(tmp_path):
    out = tmp_path / "f6"
    assert cli.main(["fig6_contours", "--phi", "0", "--mode", "para",
                     "--grid", "9x9", "--out", str(out)]) == 0
    header, rows = _read_csv(out / "contours_phi0_para.csv")
    assert header == ["phi", "pi", "ln_w_norm"]
    assert len(rows) == 81
    # symmetric window containing the origin
    assert rows[0][0] == -rows[-1][0] and rows[0][1] == -rows[-1][1]
    assert _read_meta(out)["contours_phi0_para.converged"] is True


def test_fig7_peak_is_interior(tmp_path):
    out = tmp_path / "f7"
    assert cli.main(["fig7_slice", "--grid", "41", "--out", str(out)]) == 0
    _, rows = _read_csv(out / "slice.csv")
    assert len(rows) == 41
    assert all(r[1] == 0.0 for r in rows)          # pi = 0 slice
    top = max(range(len(rows)), key=lambda i: rows[i][2])
    assert 0 < top < len(rows) - 1
    meta = _read_meta(out)
    assert rows[top][0] == pytest.approx(meta["slice.phi_peak"], rel=0.05)


@pytest.mark.parametrize("argv, n_list", [
    (["fig5_wigner", "--x", "0", "--grid", "2x2"], "28,32,36,40"),
    (["fig6_contours", "--phi", "0", "--mode", "para", "--grid", "2x2"], "8,12,16,20"),
    (["fig7_slice", "--grid", "2"], "28,32,36,40"),
], ids=["fig5", "fig6", "fig7"])
def test_meta_records_the_presets_own_n(tmp_path, argv, n_list):
    # the four extrapolated N belong to the preset; no flag sets them
    out = tmp_path / "n"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert _read_meta(out)["n_list"] == n_list


@pytest.mark.parametrize("run, alone", [
    (["fig6_contours", "--grid", "7x7"], ["--phi", "3.141592653589793", "--mode", "perp"]),
    (["fig5_wigner", "--grid", "7x7", "--x", "0.5", "1"], ["--x", "1"]),
], ids=["fig6", "fig5"])
def test_a_job_writes_the_same_bytes_alone(tmp_path, run, alone):
    # the last job of a run finds rows in the run's memo that the earlier
    # jobs built; alone it builds them itself, to the same bits and the
    # same fallback count
    a, b = tmp_path / "run", tmp_path / "alone"
    assert cli.main(run + ["--out", str(a)]) == 0
    assert cli.main(run + alone + ["--out", str(b)]) == 0
    [job] = b.glob("*.csv")
    assert (a / job.name).read_bytes() == job.read_bytes()
    key = f"{job.stem}.fallbacks"
    assert _read_meta(a)[key] == _read_meta(b)[key]


def test_a_run_builds_each_row_once_and_keeps_none(tmp_path, monkeypatch):
    # the two x of a fig5 run share one mesh: the run builds each (order,
    # r) Bessel row once, and the next run builds every row again
    runs = []
    bessel, ln_d = wigner._sf._bessel_rows, wigner._dm.ln_d_many

    def spy_bessel(orders, argument):
        runs[-1]["bessel"] += [(order, row.tobytes()) for order, row in zip(orders, argument)]
        return bessel(orders, argument)

    def spy_ln_d(state, u_sq, v_sq):
        runs[-1]["ln_d"] += np.broadcast(u_sq, v_sq).size
        return ln_d(state, u_sq, v_sq)

    monkeypatch.setattr(wigner._sf, "_bessel_rows", spy_bessel)
    monkeypatch.setattr(wigner._dm, "ln_d_many", spy_ln_d)
    for out in ("a", "b"):
        runs.append({"bessel": [], "ln_d": 0})
        assert cli.main(["fig5_wigner", "--grid", "11x11", "--x", "0.5", "1",
                         "--out", str(tmp_path / out)]) == 0
    meta = _read_meta(tmp_path / "a")
    assert meta["wigner_x0p5.quad_v_max"] == meta["wigner_x1.quad_v_max"]
    first, second = runs
    assert len(first["bessel"]) == len(set(first["bessel"])) == 4 * 10
    assert second == first


@pytest.mark.parametrize("argv", [
    ["fig3_dsurface", "--grid", "5x5"],
    ["fig4_dslices", "--grid", "5"],
    ["fig5_wigner", "--grid", "5x5"],
    ["fig6_contours", "--phi", "0", "--mode", "para", "--grid", "5x5"],
    ["fig7_slice", "--grid", "9"],
], ids=["fig3", "fig4", "fig5", "fig6", "fig7"])
def test_c4_ratio_flag_sets_x(tmp_path, argv):
    # fig3-fig7 share one x path
    out = tmp_path / "ratio"
    assert cli.main([*argv, "--c4-ratio", "-0.5", "--out", str(out)]) == 0
    meta = _read_meta(out)
    assert float(meta["x"]) == pytest.approx(x_from_c4(10.0, -0.5), rel=1e-8)


@pytest.mark.parametrize("x, tag, u_max", [
    ("15", "15", 1.5 * math.sqrt(212.65545801798518)),  # past the ridge
    ("0", "0", 1.5),                                    # no ridge: u scale 1
], ids=["peaked", "gaussian"])
def test_default_u_max(tmp_path, x, tag, u_max):
    out = tmp_path / "u"
    assert cli.main(["fig3_dsurface", "--x", x, "--grid", "2x2",
                     "--out", str(out)]) == 0
    meta = _read_meta(out)
    assert meta[f"dsurface_x{tag}.u_max"] == pytest.approx(u_max, rel=1e-12)
    assert meta[f"dsurface_x{tag}.v_max"] == 4.0


@pytest.mark.parametrize("argv", [
    ["fig3_dsurface", "--grid", "5x5"],
    ["fig4_dslices", "--grid", "5"],
    ["fig5_wigner", "--grid", "5x5"],
    ["fig6_contours", "--phi", "0", "--mode", "para", "--grid", "5x5"],
    ["fig7_slice", "--grid", "9"],
], ids=["fig3", "fig4", "fig5", "fig6", "fig7"])
def test_ridge_threshold_state_exits_0(tmp_path, argv):
    # x on the ridge threshold: the default windows' ridge scale is u = 0
    # there (densmat.ridge_u raised a bare TypeError, exit 1, no meta.json)
    out = tmp_path / "edge"
    assert cli.main([*argv, "--n", "112.88378916846884", "--x", "0.5000064822423872",
                     "--out", str(out)]) == 0
    assert not [k for k in _read_meta(out) if k.endswith(".error")]


@pytest.mark.parametrize("preset, keys", [
    ("fig3_dsurface", ["dsurface_x0", "dsurface_x0p5", "dsurface_x1", "dsurface_x15"]),
    ("fig4_dslices", ["dslices"]),
], ids=["fig3", "fig4"])
def test_default_surfaces_need_no_root_solve(tmp_path, preset, keys):
    # every point of the default grids comes from the kernel table
    out = tmp_path / "fb"
    assert cli.main([preset, "--out", str(out)]) == 0
    meta = _read_meta(out)
    assert sorted(k for k in meta if k.endswith(".fallbacks")) == [f"{k}.fallbacks" for k in keys]
    assert all(meta[f"{k}.fallbacks"] == 0 for k in keys)


@pytest.mark.parametrize("argv, keys, some", [
    (["fig5_wigner", "--grid", "5x5"],
     ["wigner_x0", "wigner_x0p5", "wigner_x1", "wigner_x15"], False),
    (["fig6_contours", "--grid", "5x5", "--phi", "0"],
     ["contours_phi0_para", "contours_phi0_perp"], False),
    (["fig7_slice", "--grid", "9"], ["slice"], True),
], ids=["fig5", "fig6", "fig7"])
def test_wigner_artifacts_record_fallbacks(tmp_path, argv, keys, some):
    # every Wigner artifact counts the mesh points its u^2 rows' kernel
    # tables sent to the root-finder: none at fig5's and fig6's states,
    # some at fig7's x = 3000, in the rows near u = 0
    out = tmp_path / "fb"
    assert cli.main([*argv, "--out", str(out)]) == 0
    meta = _read_meta(out)
    assert sorted(k for k in meta if k.endswith(".fallbacks")) == [f"{k}.fallbacks" for k in keys]
    assert all((meta[f"{k}.fallbacks"] > 0) == some for k in keys)


def test_json_format(tmp_path):
    out = tmp_path / "js"
    assert cli.main(["fig1_c4", "--x", "0", "1", "--format", "json",
                     "--out", str(out)]) == 0
    with open(out / "c4_ratio.json") as fh:
        data = json.load(fh)
    assert data["header"] == ["n", "x", "c4_ratio"]
    assert len(data["rows"]) == 6


def test_invalid_config_exits_2(tmp_path, capsys):
    out = str(tmp_path / "bad")
    assert cli.main(["fig3_dsurface", "--x", "5", "--c4-ratio", "-0.5",
                     "--out", out]) == 2
    assert cli.main(["fig3_dsurface", "--grid", "bogus", "--out", out]) == 2
    for threads in ("0", "2", "abc"):  # artifacts are built one at a time
        assert cli.main(["fig1_c4", "--threads", threads, "--out", out]) == 2
    assert cli.main(["fig5_wigner", "--tol", "-1", "--out", out]) == 2
    assert cli.main(["fig5_wigner", "--N-list", "4", "6", "8", "10",
                     "--out", out]) == 2                  # each preset's own N
    assert cli.main(["fig6_contours", "--gamma", "1.5", "--out", out]) == 2
    assert not (tmp_path / "bad").exists()
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["fig1_c4", "--x", "nan"],
    ["fig1_c4", "--x", "inf"],
    ["fig2_purity", "--n", "inf"],
    ["fig3_dsurface", "--x", "nan"],
])
def test_non_finite_flags_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "nf"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


def _preset_flags():
    """(preset, option string, action) for every valued flag of every preset."""
    presets = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
    for preset, parser in presets.items():
        for action in parser._actions:
            if action.option_strings and action.nargs != 0:
                yield preset, action.option_strings[0], action


def _is_float_flag(action):
    try:
        return isinstance(action.type("2"), float)
    except (TypeError, argparse.ArgumentTypeError):
        return False


def test_every_flag_has_a_parsing_type():
    # a free-text flag would reach the planners unchecked
    for preset, flag, action in _preset_flags():
        if flag != "--out":
            assert action.type is not None or action.choices, (preset, flag)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_every_float_flag_refuses_non_finite(tmp_path, capsys, value):
    checked = 0
    for preset, flag, action in _preset_flags():
        if not _is_float_flag(action):
            continue
        out = tmp_path / f"{preset}{flag}"
        assert cli.main([preset, flag, value, "--out", str(out)]) == 2, (preset, flag)
        assert not out.exists(), (preset, flag)
        checked += 1
    assert checked >= 31
    capsys.readouterr()


_FLAGS = {}  # preset -> [(flag, action)], the parser's own valued flags
for _preset, _flag, _action in _preset_flags():
    if _flag != "--out":
        _FLAGS.setdefault(_preset, []).append((_flag, _action))

# boundary, out-of-range, non-finite, huge and non-numeric values
_EDGE = hst.sampled_from(["0", "-0.0", "5e-324", "1e-300", "1", "0.999999", "-1",
                          "6.283185307179586", "3000", "nan", "inf", "-inf",
                          "1e154", "1e200", "1e308", "abc"])


def _flag_value(draw, action):
    """One value for action: one in ten drawn off the usual range."""
    edge = draw(hst.integers(0, 9)) == 0
    if action.choices:
        return draw(hst.sampled_from(["2", "bogus"] if edge else list(map(str, action.choices))))
    if action.dest == "grid":  # at most 5 per axis: each run takes milliseconds
        parts = action.default.count("x") + 1
        sizes = hst.sampled_from(["0", "1", "-2", "", "5"] if edge else ["2", "3", "5"])
        count = draw(hst.integers(1, 3)) if edge else parts
        return "x".join(draw(hst.lists(sizes, min_size=count, max_size=count)))
    if edge:
        return draw(_EDGE)
    return repr(draw(hst.one_of(hst.floats(0.0, 1.0), hst.floats(-1.0, 20.0))))


@hst.composite
def _argv(draw):
    """A preset and some of its flags, each with 1-3 values where it takes
    a list; --grid always, so no run takes a default (large) grid."""
    preset = draw(hst.sampled_from(sorted(_FLAGS)))
    argv = [preset]
    for flag, action in _FLAGS[preset]:
        if action.dest == "grid" or draw(hst.booleans()):
            count = draw(hst.integers(1, 3)) if action.nargs == "+" else 1
            argv += [flag, *(_flag_value(draw, action) for _ in range(count))]
    return argv


def _table_is_finite(path):
    if path.suffix == ".csv":
        return all(map(math.isfinite, np.ravel(_read_csv(path)[1])))
    with open(path) as fh:
        return all(map(math.isfinite, np.ravel(json.load(fh)["rows"])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_argv())
def test_cli_contract_holds_for_drawn_argv(argv):
    # exit 0, 1 or 2 for any argv; 2 with one error line and no file; no
    # traceback; each written table finite unless meta.json flags it
    with tempfile.TemporaryDirectory() as tmp:
        out, err = pathlib.Path(tmp) / "out", io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out", str(out)])
        err = err.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1
            assert not out.exists()
            return
        meta = _read_meta(out)
        for path in out.iterdir():
            if path.name != "meta.json" and not _table_is_finite(path):
                assert meta[f"{path.stem}.converged"] is False, path.name


@pytest.mark.parametrize("argv", [
    *([p, "--u-max", "-1"] for p in ("fig3_dsurface", "fig4_dslices",
                                     "fig5_wigner", "fig6_contours",
                                     "fig7_slice")),
    ["fig3_dsurface", "--v-max", "-1"],
    ["fig5_wigner", "--r-max", "0"],
    ["fig6_contours", "--r-max", "0"],
    ["fig3_dsurface", "--n", "0"],
    *([p, "--grid", "5"] for p in ("fig3_dsurface", "fig5_wigner",
                                   "fig6_contours")),
    ["fig4_dslices", "--grid", "21x7"],           # one-axis presets take W
    ["fig7_slice", "--grid", "9x3"],
    ["fig6_contours", "--x", "1", "2"],
    ["fig3_dsurface", "--n", "1e308"],           # kappa underflows
    ["fig5_wigner", "--n", "1e120", "--x", "0.5"],  # xi underflows
    *([p, "--x", "1e308"] for p in ("fig3_dsurface", "fig4_dslices",
                                    "fig5_wigner", "fig6_contours",
                                    "fig7_slice")),    # z0_sq overflows
    *([p, "--n", "0"] for p in ("fig6_contours", "fig7_slice")),
])
def test_out_of_range_flags_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "range"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("argv,values", [
    (["fig3_dsurface", "--x", "0.5", "0.50", "--grid", "5x5"], "0.5 and 0.5"),
    (["fig5_wigner", "--x", "1", "1.0000000001", "--grid", "3x3"],
     "1.0 and 1.0000000001"),
    (["fig6_contours", "--phi", "0", "0"], "0.0 and 0.0"),
])
def test_colliding_artifact_names_exit_2(tmp_path, capsys, argv, values):
    # both values wrote the same file, and meta.json listed the pair
    out = tmp_path / "dup"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert values in capsys.readouterr().err


def test_meta_names_the_package_version(tmp_path):
    out = tmp_path / "ver"
    assert cli.main(["fig1_c4", "--x", "0", "--out", str(out)]) == 0
    assert _read_meta(out)["version"] == ngstate.__version__


def _parser_defaults():
    presets = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
    return {(preset, a.dest): copy.deepcopy(a.default)
            for preset, parser in presets.items() for a in parser._actions}


def test_two_runs_in_one_process_write_the_same_bytes(tmp_path, capsys):
    # one parser per process hands the same default lists to every run, so
    # a planner that changed one in place would change the next run
    assert cli.build_parser() is cli.build_parser()
    defaults = _parser_defaults()
    small = {"fig3_dsurface": ["--grid", "9x7"], "fig4_dslices": ["--grid", "9"],
             "fig5_wigner": ["--grid", "5x5"], "fig6_contours": ["--grid", "5x5"],
             "fig7_slice": ["--grid", "9"]}
    for preset in ("fig1_c4", "fig2_purity", *small):
        runs = [tmp_path / preset / str(k) for k in (1, 2)]
        for out in runs:
            assert cli.main([preset, *small.get(preset, []), "--out", str(out)]) == 0
        names = sorted(p.name for p in runs[0].iterdir())
        assert names == sorted(p.name for p in runs[1].iterdir()) and len(names) > 1
        for name in names:
            first, second = ((out / name).read_bytes() for out in runs)
            if name == "meta.json":
                first, second = ({**json.loads(m), "out": None} for m in (first, second))
            assert first == second, (preset, name)
    reports = []
    for _ in range(2):
        assert cli.main(["validate", "--quick"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert _parser_defaults() == defaults


def test_help_exits_0(capsys):
    assert cli.main(["fig6_contours", "--help"]) == 0
    assert "default: 0.9" in capsys.readouterr().out


def test_bracket_failure_exits_1_with_meta(tmp_path, capsys, monkeypatch):
    # an envelope that never decays leaves the quadrature cut unbracketed
    monkeypatch.setattr(wigner._dm, "ln_d_many", lambda state, u_sq, v_sq:
                        np.zeros(np.broadcast_shapes(np.shape(u_sq), np.shape(v_sq))))
    out = tmp_path / "br"
    code = cli.main(["fig5_wigner", "--x", "1", "--grid", "3x3",
                     "--out", str(out)])
    assert code == 1
    capsys.readouterr()
    meta = _read_meta(out)
    assert meta["wigner_x1.converged"] is False
    assert "envelope" in meta["wigner_x1.error"]


@pytest.mark.parametrize("argv", [
    ["--x", "1e20"],               # ln p overflowed
    ["--n", "1e17", "--x", "1"],   # n~ = 1/(e^z~ - 1) with e^-z~ == 1.0
])
def test_purity_extreme_inputs_exit_0(tmp_path, capsys, argv):
    out = tmp_path / "pp"
    assert cli.main(["fig2_purity", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = _read_csv(out / "purity.csv")
    ratio = [row[header.index("ratio")] for row in rows]
    assert all(0.0 < r <= 1.0 for r in ratio)
    if "--n" in argv:
        assert ratio == [pytest.approx(observables.purity_limit_large_n(1.0)[1],
                                       abs=1e-9)]


@pytest.mark.parametrize("preset,name", [("fig1_c4", "c4_ratio"),
                                         ("fig2_purity", "purity")])
def test_underflowing_state_exits_1_with_meta(tmp_path, capsys, preset, name):
    for argv, cause in ((["--n", "1e200", "--x", "0.5"], "underflows"),
                        (["--n", "10", "--x", "1e308"], "overflows")):
        out = tmp_path / cause
        code = cli.main([preset, *argv, "--out", str(out)])
        capsys.readouterr()
        meta = _read_meta(out)
        if preset == "fig1_c4" and cause == "overflows":
            # C4/2F^2 has one closed form up to the largest double: near -1
            assert code == 0 and f"{name}.error" not in meta
            header, rows = _read_csv(out / "c4_ratio.csv")
            assert [row[header.index("c4_ratio")] for row in rows] == [-1.0]
            continue
        assert code == 1
        assert meta[f"{name}.converged"] is False
        assert cause in meta[f"{name}.error"]


def test_not_converged_exits_1_with_partial_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(wigner, "SPREAD_TOL", 1e-9)
    out = tmp_path / "nc"
    code = cli.main(["fig5_wigner", "--x", "15", "--grid", "5x5",
                     "--out", str(out)])
    assert code == 1
    capsys.readouterr()
    assert (out / "wigner_x15.csv").exists()       # partial output kept
    meta = _read_meta(out)
    assert meta["wigner_x15.converged"] is False
    assert meta["wigner_x15.max_spread"] > 1e-9


@pytest.mark.parametrize("argv, name", [
    (["fig5_wigner", "--u-max", "1e200"], "wigner_x1"),      # u^2 overflows
    (["fig5_wigner", "--r-max", "1e308"], "wigner_x1"),      # N r overflows
    (["fig6_contours", "--u-max", "1e200"], "contours_phi0_para"),
    (["fig6_contours", "--r-max", "1e200"], "contours_phi0_para"),  # r^2
    (["fig7_slice", "--u-max", "1e200"], "slice"),
    (["fig3_dsurface", "--u-max", "1e200"], "dsurface_x1"),  # u^2 overflows
    (["fig3_dsurface", "--v-max", "1e200"], "dsurface_x1"),  # v^2 overflows
    (["fig4_dslices", "--u-max", "1e200"], "dslices"),
    (["fig3_dsurface", "--u-max", "1e154"], "dsurface_x1"),  # Fu u^2 overflows
])
def test_overflowing_wigner_coordinates_exit_1_with_meta(tmp_path, capsys,
                                                        argv, name):
    # finite flags whose (u^2, v^2, r) overflow: a flagged artifact naming
    # the overflow, not a crash, a numpy warning or a misleading error
    out = tmp_path / "ovf"
    small = {"fig3_dsurface": ["--x", "1", "--grid", "5x5"],
             "fig4_dslices": ["--x", "1", "--grid", "5"],
             "fig5_wigner": ["--x", "1", "--grid", "3x3"],
             "fig6_contours": ["--phi", "0", "--mode", "para", "--grid", "3x3"],
             "fig7_slice": ["--grid", "3"]}[argv[0]]
    assert cli.main([*argv, *small, "--out", str(out)]) == 1
    assert "Warning" not in capsys.readouterr().err
    meta = _read_meta(out)
    assert meta[f"{name}.converged"] is False
    assert "overflow" in meta[f"{name}.error"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_table_is_refused(tmp_path, capsys, monkeypatch, fmt):
    monkeypatch.setattr(observables, "c4_half_ratio_nx", lambda n, x: math.nan)
    out = tmp_path / "nan"
    assert cli.main(["fig1_c4", "--n", "1", "--x", "0.5", "--format", fmt,
                     "--out", str(out)]) == 1
    capsys.readouterr()
    assert not (out / f"c4_ratio.{fmt}").exists()
    meta = _read_meta(out)
    assert meta["c4_ratio.converged"] is False
    assert "non-finite" in meta["c4_ratio.error"]


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under_file"])
def test_out_that_is_not_a_directory_exits_2(tmp_path, capsys, under):
    # --out names an existing file (FileExistsError) or a path under one
    # (NotADirectoryError): one error line, not a traceback
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    out = blocker / under if under else blocker
    assert cli.main(["fig1_c4", "--x", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out")
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("blocked", ["c4_ratio.csv", "meta.json"])
def test_unwritable_file_exits_1(tmp_path, capsys, blocked):
    # a directory where a file goes: the write's OSError exits 1; an
    # artifact's is flagged in meta.json like a refused table
    out = tmp_path / "blk"
    (out / blocked).mkdir(parents=True)
    assert cli.main(["fig1_c4", "--x", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if blocked == "meta.json":
        assert (out / "c4_ratio.csv").exists()
        assert err.startswith("error: meta.json not written")
        return
    meta = _read_meta(out)
    assert meta["c4_ratio.converged"] is False
    assert "c4_ratio.csv" in meta["c4_ratio.error"]
    assert "c4_ratio.file" not in meta


def _bench_tracer():
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod.Tracer()


def test_bench_tracer_counts_csv_rows(tmp_path):
    # the benchmark's tracer wraps gridio.write_csv(path, header, rows) and
    # reads len(rows) and the file size: a change there breaks the bench
    out = tmp_path / "tr"
    tracer = _bench_tracer()
    tracer.install()
    try:
        assert cli.main(["fig1_c4", "--x", "0", "1", "2", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    _, rows = _read_csv(out / "c4_ratio.csv")
    assert len(rows) == 9
    assert metrics["gridio.write_csv.calls"] == 1
    assert metrics["gridio.write_csv.rows"] == len(rows)
    assert metrics["gridio.write_csv.bytes"] == (out / "c4_ratio.csv").stat().st_size
    assert metrics["cli.fig1_c4.wall_s"] > 0.0


def test_bench_tracer_reads_wigner_calls(tmp_path):
    # the tracer reads project_physical(sq, x, mode, phi, pi, ...) by
    # position and the quadrature size from its result
    tracer = _bench_tracer()
    tracer.install()
    try:
        assert cli.main(["fig6_contours", "--grid", "5x5", "--phi", "0",
                         "--mode", "para", "--out", str(tmp_path / "f6")]) == 0
        wigner.ln_w(ReducedState.from_nx(10.0, 1.0), 1.0, 1.0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    elems = [sp[5] for sp in tracer.spans if sp[0] == "wigner.project_physical"]
    assert elems == [25]
    assert metrics["wigner.ln_w.calls"] == 1
    assert metrics["wigner.quad_points"] > 0
