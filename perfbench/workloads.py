"""Seeded inputs, work items and correctness checks of each workload.

An item is one unit of work that is timed on its own and passes or fails
on its own: one ``ngstate`` preset command (with every file it writes)
for the figure workloads, one measured correlator set run through the
paper's pipeline for ``api_requests``.

Seed rule for the figure workloads: seed 0 runs each preset with its
defaults (no --n/--x flags).  Any other seed multiplies every non-zero
default n and x of the preset by its own factor drawn uniformly from
[1 - JITTER, 1 + JITTER] and passes the values as CLI flags.  API
requests are a Latin hypercube sample of the input ranges below, so every
run covers each range evenly and the work of a pass varies little from
seed to seed.  Draws use Python's ``random.Random`` seeded with
"<preset or workload>/<seed>", so the inputs depend only on the seed,
never on numpy or on the other workloads.
"""

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

WORKLOADS = {
    "wigner_figs": ("fig5_wigner", "fig6_contours", "fig7_slice"),
    "surface_figs": ("fig1_c4", "fig2_purity", "fig3_dsurface",
                     "fig4_dslices", "validate"),
    "api_requests": (),
}

REQUESTS_PER_PASS = 400  # p95 is then taken with 20 samples beyond it
JITTER = 0.02  # relative; the cost of a preset follows n and x about 1:1

# Inputs of one API request: n in [2.5, 20]; a C4/2F^2 ratio in
# [-0.9, -0.01]; correlators with that n (F = (n+1/2) e^a, R = (n+1/2) b,
# a, b in [-0.5, 0.5]); u^2, v^2 in [0, 4]; and r^2 in [0, 4.5], the
# documented quadrature window N r^2/4 <= 45 at the default N_max = 40.
# Occupations below 2.5 are left out: there, for strong non-Gaussianity
# and u^2 inside the ridge, ln_w raises NotConverged or
# QuadratureNonPositive well inside that window (e.g. n = 0.3,
# C4/2F^2 = -0.77, u^2 = 0, r^2 = 1), about one request in 1,600 over
# n in [0.1, 20], and a workload must not fail.  See README.md.
N_RANGE = (2.5, 20.0)
C4_RANGE = (-0.9, -0.01)
UV_SQ_MAX = 4.0
R_SQ_MAX = 4.5

# Correctness tolerances (stated in README.md).
DIGEST_REL_TOL = 1e-6      # seed-0 reference digests, |a-b| <= tol*max(1,|b|)
GAUSSIAN_ABS_TOL = 1e-6    # x = 0 artifacts against the closed form
C4_ROUNDTRIP_TOL = 1e-9    # |c4(n, x_from_c4(n, c4)) - c4|
ENTROPY_REL_TOL = 1e-12    # entropy_per_dof against (n+1)ln(n+1) - n ln n
PURITY_REL_TOL = 1e-9      # purity against oracle.purity_by_definition
PURITY_EVERY = 10          # purity oracle on every 10th request

_SWEEP_X = [20.0 * i / 200 for i in range(201)]
_SLICE_X = [0.0, 0.5, 1.0, 15.0]

# preset -> (default n values, default x values), as in ngstate.cli
_PRESETS = {
    "fig1_c4": ([0.0, 1.0, 10.0], _SWEEP_X),
    "fig2_purity": ([0.0, 0.1, 0.5, 1.0, 10.0], _SWEEP_X),
    "fig3_dsurface": ([10.0], _SLICE_X),
    "fig4_dslices": ([10.0], _SLICE_X),
    "fig5_wigner": ([10.0], _SLICE_X),
    "fig6_contours": ([10.0], [15.0]),
    "fig7_slice": ([10.0], [3000.0]),
}


def _layout(preset, n_values, x_values):
    """(number of data files, rows per file) the preset must write."""
    nn, nx = len(n_values), len(x_values)
    return {
        "fig1_c4": (1, nn * nx),
        "fig2_purity": (1, nn * nx),
        "fig3_dsurface": (nx, 201 * 201),
        "fig4_dslices": (1, nx * 201),
        "fig5_wigner": (nx, 101 * 101),
        "fig6_contours": (4, 41 * 41),
        "fig7_slice": (1, 201),
    }[preset]


def preset_inputs(preset, seed):
    """(n values, x values, extra argv) of one preset at this seed."""
    n_values, x_values = _PRESETS[preset]
    if seed == 0:
        return list(n_values), list(x_values), []
    rng = random.Random(f"{preset}/{seed}")
    n_values = [n * rng.uniform(1 - JITTER, 1 + JITTER) for n in n_values]
    x_values = [x * rng.uniform(1 - JITTER, 1 + JITTER) for x in x_values]
    return n_values, x_values, ["--n", *map(repr, n_values),
                                "--x", *map(repr, x_values)]


@dataclass(frozen=True)
class Request:
    F: float
    K: float
    R: float
    c4: float
    u_sq: float
    v_sq: float
    r_sq: float


_RANGES = (N_RANGE, C4_RANGE, (-0.5, 0.5), (-0.5, 0.5),
           (0.0, UV_SQ_MAX), (0.0, UV_SQ_MAX), (0.0, R_SQ_MAX))


def _request(n, c4, a, b, u_sq, v_sq, r_sq):
    F = (n + 0.5) * math.exp(a)
    R = (n + 0.5) * b
    return Request(F=F, K=((n + 0.5) ** 2 + R * R) / F, R=R, c4=c4,
                   u_sq=u_sq, v_sq=v_sq, r_sq=r_sq)


def api_inputs(seed, count=REQUESTS_PER_PASS):
    """Latin hypercube sample: each range is cut into `count` equal strata
    and every stratum of every input is used exactly once."""
    rng = random.Random(f"api_requests/{seed}")
    columns = []
    for lo, hi in _RANGES:
        strata = list(range(count))
        rng.shuffle(strata)
        columns.append([lo + (hi - lo) * (k + rng.random()) / count for k in strata])
    return [_request(*values) for values in zip(*columns)]


# ---------------------------------------------------------------------------
# items


@dataclass
class Item:
    """One timed unit of work: call() is timed, check(outcome) is not."""

    name: str
    call: object
    check: object
    out_dir: str | None = None
    digest: object = None     # outcome -> JSON-able digest (seed-0 check)


def _read_table(path):
    with open(path, encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _table_digest(header, data):
    idx = np.unique(np.linspace(0, len(data) - 1, 16).round().astype(int))
    return {"header": header, "rows": int(len(data)),
            "min": data.min(axis=0).tolist(), "max": data.max(axis=0).tolist(),
            "sum": data.sum(axis=0).tolist(),
            "sample": data[idx].tolist()}


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def compare_digest(got, ref, tol=DIGEST_REL_TOL, where=""):
    """List of mismatches between two digests (nested dict/list/number)."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ"]
        return [p for k in ref for p in compare_digest(got[k], ref[k], tol, f"{where}/{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs"]
        return [p for i, (g, r) in enumerate(zip(got, ref))
                for p in compare_digest(g, r, tol, f"{where}[{i}]")]
    if isinstance(ref, str) or isinstance(got, str):
        return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]
    return [] if _close(got, ref, tol) else [f"{where}: {got!r} != {ref!r}"]


def _gaussian_ln_d_norm(n, u, v):
    # x = 0: ln d = -(F0 + Fu u^2 + Fv v^2) - ln Z at s = z^2, max at 0
    z = math.log1p(1.0 / n)
    fu = 0.5 * z * math.tanh(0.5 * z)
    fv = 0.5 * z / math.tanh(0.5 * z)
    return -fu * u * u - fv * v * v


def _cli_call(ng, argv):
    """A call of ``ngstate.cli.main(argv)`` returning (exit code, stdout)."""
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = ng.cli.main(argv)
        return rc, buf.getvalue()
    return call


def _figure_item(ng, preset, seed, work_dir):
    n_values, x_values, extra = preset_inputs(preset, seed)
    out_dir = os.path.join(work_dir, preset)
    n_files, n_rows = _layout(preset, n_values, x_values)
    call = _cli_call(ng, [preset, "--out", out_dir, "--threads", "1", *extra])

    def check(outcome):
        rc, _ = outcome
        if rc != 0:
            return [f"{preset}: exit code {rc}"]
        with open(os.path.join(out_dir, "meta.json"), encoding="ascii") as fh:
            meta = json.load(fh)
        problems = [f"{preset}: {k} = {v}" for k, v in meta.items()
                    if k.endswith(".error") or (k.endswith(".converged") and v is False)]
        files = sorted(v for k, v in meta.items() if k.endswith(".file"))
        if len(files) != n_files:
            problems.append(f"{preset}: {len(files)} files, expected {n_files}")
        for name in files:
            header, data = _read_table(os.path.join(out_dir, name))
            if data.shape[0] != n_rows:
                problems.append(f"{preset}/{name}: {data.shape[0]} rows, expected {n_rows}")
            if not np.all(np.isfinite(data)):
                problems.append(f"{preset}/{name}: non-finite values")
            if name == "wigner_x0.csv":
                problems += _check_gaussian_wigner(ng, n_values[0], data, name)
            elif name == "dsurface_x0.csv":
                ref = _gaussian_ln_d_norm(n_values[0], data[:, 0], data[:, 1])
                err = float(np.max(np.abs(data[:, 2] - ref)))
                if not err <= GAUSSIAN_ABS_TOL:
                    problems.append(f"{preset}/{name}: off the Gaussian ln d by {err:.3e}")
        return problems

    def digest(outcome):
        with open(os.path.join(out_dir, "meta.json"), encoding="ascii") as fh:
            files = sorted(v for k, v in json.load(fh).items() if k.endswith(".file"))
        return {name: _table_digest(*_read_table(os.path.join(out_dir, name)))
                for name in files}

    return Item(preset, call, check, out_dir=out_dir, digest=digest)


def _check_gaussian_wigner(ng, n, data, name):
    # x = 0: ln w is the closed Gaussian form; normalized to its maximum
    # at u = r = 0, which the default grid contains
    state = ng.ReducedState.from_nx(n, 0.0)
    u, r = data[:, 0], data[:, 1]
    exact = ng.ln_w_gaussian_exact(state, u * u, r * r)
    exact = exact - ng.ln_w_gaussian_exact(state, 0.0, 0.0)
    err = float(np.max(np.abs(data[:, 2] - exact)))
    if err <= GAUSSIAN_ABS_TOL:
        return []
    return [f"fig5_wigner/{name}: off the Gaussian ln w by {err:.3e}"]


def _validate_item(ng):
    def check(outcome):
        rc, text = outcome
        lines = text.strip().splitlines()
        problems = [f"validate: {ln.split()[0]} FAIL" for ln in lines[:-1]
                    if not ln.rstrip().endswith(" PASS")]
        if rc != 0 or not lines or not lines[-1].endswith(" 0 failed"):
            problems.append(f"validate: exit code {rc}, summary {lines[-1:]}")
        return problems

    def digest(outcome):
        return [ln.split()[0] for ln in outcome[1].strip().splitlines()[:-1]]

    return Item("validate", _cli_call(ng, ["validate", "--quick"]), check,
                digest=digest)


def _request_item(ng, index, req):
    def call():
        m = ng.GaussianMoments(F=req.F, K=req.K, R=req.R)
        n = ng.occupation(m)
        x = ng.x_from_c4(n, req.c4)
        params = ng.params_from_moments(m, x)
        entropy = ng.entropy_per_dof(n)
        state = ng.ReducedState.from_nx(n, x)
        pur = ng.purity(state)
        d = ng.ln_d(state, ng.PhasePoint(req.u_sq, req.v_sq), c_coeff=params.C)
        w, spread = ng.ln_w(state, req.u_sq, req.r_sq)
        return {"n": n, "x": x, "entropy": entropy, "p": pur.p,
                "purity_ratio": pur.ratio, "ln_d": d.ln_d, "ln_w": w,
                "spread": spread, "params": params}

    def check(out):
        name = f"request {index}"
        values = [v for k, v in out.items() if k != "params"]
        if not all(math.isfinite(v) for v in values):
            return [f"{name}: non-finite output {values}"]
        problems = []
        n, x = out["n"], out["x"]
        back = ng.c4_half_ratio_nx(n, x)
        if not abs(back - req.c4) <= C4_ROUNDTRIP_TOL:
            problems.append(f"{name}: c4 roundtrip {back!r} != {req.c4!r}")
        exact = (n + 1.0) * math.log(n + 1.0) - n * math.log(n)
        if not abs(out["entropy"] - exact) <= ENTROPY_REL_TOL * max(1.0, abs(exact)):
            problems.append(f"{name}: entropy {out['entropy']!r} != {exact!r}")
        if index % PURITY_EVERY == 0:
            p_def = ng.purity_by_definition(out["params"])
            if not abs(p_def - out["p"]) <= PURITY_REL_TOL * out["p"]:
                problems.append(f"{name}: purity {out['p']!r} != definition {p_def!r}")
        return problems

    def digest(out):
        return [out[k] for k in ("n", "x", "entropy", "p", "purity_ratio",
                                 "ln_d", "ln_w", "spread")]

    return Item(f"request{index:03d}", call, check, digest=digest)


def build(ng, workload, seed, work_dir):
    """(warm-up item, timed items) of one workload at one seed."""
    if workload == "api_requests":
        rng = random.Random(f"api_requests/warmup/{seed}")
        warm = _request(*(rng.uniform(lo, hi) for lo, hi in _RANGES))
        return (_request_item(ng, 0, warm),
                [_request_item(ng, i, r) for i, r in enumerate(api_inputs(seed))])
    items = [_validate_item(ng) if p == "validate" else _figure_item(ng, p, seed, work_dir)
             for p in WORKLOADS[workload]]
    if workload == "wigner_figs":
        warm_argv = ["fig7_slice", "--grid", "9"]
    else:
        warm_argv = ["fig4_dslices", "--grid", "21"]
    warm_dir = os.path.join(work_dir, "warmup")
    warm_call = _cli_call(ng, [*warm_argv, "--out", warm_dir, "--threads", "1"])
    return Item("warmup", warm_call, None, out_dir=warm_dir), items
