"""ngstate benchmark: one workload run, or a report over workloads and seeds.

Run from the root of a checkout (the directory holding src/ngstate):

    python3 perfbench/run.py --workload wigner_figs --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --report                 # every workload, seed 0
    python3 perfbench/run.py --report --runs 10       # seeds 1..10, spreads
    python3 perfbench/run.py --report --trace 1 --save perfbench/results/x.json
    python3 perfbench/run.py --write-reference        # refresh seed-0 digests

A single run prints a few human-readable lines and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones.  This script uses only the standard library; the measuring happens
in worker.py, in fresh processes.  See README.md for the definitions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

SETUP_SAMPLES = 5        # set-up is timed in this many fresh processes
BLAS_THREADS = "1"       # fixed, so results do not depend on the core count
RUN_TIMEOUT_S = 170.0    # a run's workers are killed after this long


class BenchError(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("NGSTATE_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _start_worker(args):
    """Start worker.py; returns (process, start time)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), text=True,
                            stdout=subprocess.PIPE)
    return proc, start


def _drive(proc, start, deadline):
    """Read the worker's protocol lines; returns (setup_s, speed factor,
    result or None)."""
    watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    setup_s, speed, result = None, None, None
    try:
        for line in proc.stdout:
            if line.startswith("@ready"):
                setup_s = time.perf_counter() - start
            elif line.startswith("@speed "):
                speed = float(line.split()[1])
            elif line.startswith("@result "):
                result = json.loads(line[len("@result "):])
            else:
                sys.stderr.write(line)
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or setup_s is None or speed is None:
        raise BenchError(f"worker exited with code {code}")
    return setup_s, speed, result


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace, emit_digests=False):
    """One benchmark run; returns the result dict (last-line object + extras)."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []  # (raw set-up time, speed factor right after it)
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_drive(*_start_worker([*common, "--setup-only"]), deadline)[:2])
    extra = ["--trace", str(int(trace))]
    if emit_digests:
        extra.append("--emit-digests")
    setup_s, speed, result = _drive(*_start_worker([*common, *extra]), deadline)
    if result is None:
        raise BenchError("worker printed no result")
    setups.append((setup_s, speed))
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(s * k for s, k in setups)
        result["setup_samples_s"] = [s for s, _ in setups]
        result["setup_speeds"] = [k for _, k in setups]
    spec = load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                         f"match BENCHMARK.json")
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in units}
    result["correct"] = result["failed"] == 0 and result["attempted"] >= 1
    return result


def environment():
    """Machine and software record printed with every result."""
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "blas_threads": int(BLAS_THREADS)}
    if hasattr(os, "sched_getaffinity"):
        env["nproc_usable"] = len(os.sched_getaffinity(0))
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), platform.machine())
    except OSError:
        env["cpu"] = platform.machine()
    probe = ("import json, numpy, scipy; b = numpy.show_config(mode='dicts')"
             "['Build Dependencies']['blas']; print(json.dumps({'numpy': "
             "numpy.__version__, 'scipy': scipy.__version__, 'blas': "
             "f\"{b.get('name')} {b.get('version')}\"}))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=_worker_env(), cwd=ROOT, timeout=60)
    if out.returncode == 0:
        env.update(json.loads(out.stdout))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT, timeout=30)
        env["git_commit"] = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        env["git_commit"] = "unknown"
    return env


def _final_line(result):
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def _print_run(workload, seed, result):
    print(f"workload {workload} seed {seed}: attempted {result['attempted']}, "
          f"failed {result['failed']}, fail_rate "
          f"{result['failed'] / result['attempted']:.6g} ratio")
    for msg in result.get("failures", []):
        print(f"  failure: {msg}")
    for key in ("pass_walls_s", "pass_speeds", "traced_pass_walls_s",
                "setup_samples_s", "setup_speeds"):
        if result.get(key):
            print(f"  {key}: " + " ".join(f"{v:.4g}" for v in result[key]))
    if "raw_wall_s" in result:
        print(f"  raw_wall_s (unscaled) = {result['raw_wall_s']:.6g} s")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def _quartile_spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def report(workloads, seeds, seconds, trace, save):
    """Run every workload at every seed; print metrics and their spreads."""
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    record = {"environment": env, "seconds": seconds, "trace": bool(trace), "runs": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, trace)
            runs.append({"seed": seed, **result})
            _print_run(workload, seed, result)
            ok = ok and result["correct"]
        record["runs"][workload] = runs
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {workload}: {len(runs)} runs, fail_rate = "
              f"{failed / attempted:.6g} ratio ({failed}/{attempted})")
        for name, unit in ((n, m["unit"]) for n, m in runs[0]["metrics"].items()):
            med, spread = _quartile_spread([r["metrics"][name]["value"] for r in runs])
            line = f"   {name:<40s} median {med:.6g} {unit}"
            bound = bounds.get(name) if not trace else None
            if spread is not None:
                line += f"  iqr/median {spread:.4f}"
                if bound is not None:
                    # steady: spread under a third of the bound; the spread
                    # of setup_s is not gated, only its median
                    verdict = ("steady" if spread <= bound / 3 else
                               "within bound" if spread <= bound else "OVER BOUND")
                    if name == "setup_s":
                        verdict = "not gated"
                    line += f"  bound {bound}  {verdict}"
            print(line)
    if save:
        with open(save, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def write_reference(seconds):
    digests = {}
    for workload in load_spec()["workloads"]:
        name = workload["name"]
        result = run_once(name, 0, seconds, trace=False, emit_digests=True)
        if not result["correct"]:
            raise BenchError(f"{name} failed at seed 0: {result['failures']}")
        digests[name] = result["digests"]
    with open(os.path.join(HERE, "reference_seed0.json"), "w", encoding="ascii") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload (or --workload) and print all metrics")
    ap.add_argument("--runs", type=int, default=1,
                    help="with --report: seeds 1..RUNS instead of --seed")
    ap.add_argument("--save", help="with --report: write every result here")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ngstate", "__init__.py")):
        print("error: src/ngstate not found next to the benchmark; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    try:
        if args.write_reference:
            return write_reference(seconds)
        if args.report:
            workloads = [args.workload] if args.workload else names
            seeds = list(range(1, args.runs + 1)) if args.runs > 1 else [args.seed]
            return report(workloads, seeds, seconds, args.trace, args.save)
        if args.workload not in names:
            ap.error(f"--workload must be one of {names}")
        result = run_once(args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("environment: " + json.dumps(environment(), sort_keys=True))
    _print_run(args.workload, args.seed, result)
    print(_final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
