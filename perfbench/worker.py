"""One workload run in a fresh process (started by run.py).

Protocol on stdout: ``@ready`` once ngstate is imported and one untimed
warm-up item has run, ``@speed <factor>`` once a chunk of the reference
work (calibrate.py) has been timed right after that, then
``@result <json>`` when the run is over.  The parent times process start
-> ``@ready`` as the set-up time and scales it by the speed factor.

Passes: a pass runs every item of the workload once, timing each item;
the items' outputs are checked after the pass, untimed and untraced.
Passes repeat while the next one is expected to end within --seconds
(at least one).  With --trace 1 untraced and traced passes alternate (at
least one of each): the untraced ones give the reference for
trace.overhead_frac, the traced ones the per-layer metrics.  The passes
of an untraced run are sampled with the reference work (see _run_pass), and
each item's time is scaled by the machine's speed around it, so that the
end-to-end times read in seconds at the machine's nominal speed.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference_seed0.json")
sys.path.insert(0, os.path.join(ROOT, "src"))

import ngstate  # noqa: E402  (set-up time starts at process start)
import ngstate.cli  # noqa: E402

import calibrate  # noqa: E402
import tracer as _tracer  # noqa: E402
import workloads as _workloads  # noqa: E402

SAMPLE_PERIOD_S = 0.1   # one unit of reference work this often during a pass
LOCAL_S = 0.25          # an item is scaled by the samples this close to it
SETUP_CAL_UNITS = 32    # reference work right after set-up


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _run_pass(items, trace, sample=False):
    """Time each item once; returns (latencies_s, scaled latencies or None,
    outcomes, tracer, speed factor of the pass or None).

    With ``sample`` the pass runs under a calibrate.Sampler: every
    SAMPLE_PERIOD_S one unit of the reference work interrupts the pass, and
    its time is taken out of the item it interrupted.  Each item's time is
    then scaled by the speed factor of the samples within LOCAL_S of it, as
    the machine's speed can change within a pass.  Traced runs do not
    sample, so that span times hold nothing but the program.
    """
    tr = sampler = None
    if trace:
        tr = _tracer.Tracer()
        tr.install()
    if sample:
        sampler = calibrate.Sampler(SAMPLE_PERIOD_S)
        sampler.start()
    spans, latencies, outcomes = [], [], []
    try:
        for index, item in enumerate(items):
            if item.out_dir is not None:
                shutil.rmtree(item.out_dir, ignore_errors=True)
            if tr is not None:
                tr.item = index
            start = time.perf_counter()
            try:
                outcome = item.call()
            except Exception as exc:  # any failure counts against this item only
                outcome = exc
            end = time.perf_counter()
            spans.append((start, end))
            latencies.append(end - start
                             - (sampler.spent_between(start, end) if sampler else 0.0))
            outcomes.append(outcome)
    finally:
        if tr is not None:
            tr.uninstall()
        if sampler is not None:
            sampler.stop()
    if sampler is None:
        return latencies, None, outcomes, tr, None
    speed = sampler.speed()
    scaled = [lat * (sampler.speed_between(start - LOCAL_S, end + LOCAL_S) or speed)
              for (start, end), lat in zip(spans, latencies)]
    return latencies, scaled, outcomes, tr, speed


def _check(items, outcomes, reference=None, digests=None):
    """Failure messages of one pass, one list per item.

    When ``digests`` is a dict, each item's digest is stored in it and,
    when ``reference`` is given, compared with the stored one.
    """
    failures = []
    for item, outcome in zip(items, outcomes):
        if isinstance(outcome, Exception):
            failures.append([f"{item.name}: {type(outcome).__name__}: {outcome}"])
            continue
        try:
            problems = list(item.check(outcome))
            if digests is not None and item.digest is not None:
                got = json.loads(json.dumps(item.digest(outcome)))
                digests[item.name] = got
                if reference is not None:
                    ref = reference.get(item.name)
                    problems += ([f"{item.name}: no reference digest"] if ref is None
                                 else _workloads.compare_digest(got, ref, where=item.name))
        except Exception as exc:  # a check that cannot run is a failure
            problems = [f"{item.name}: check raised {type(exc).__name__}: {exc}"]
        failures.append(problems)
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(_workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--emit-digests", action="store_true",
                    help="report each item's digest instead of checking it")
    args = ap.parse_args(argv)

    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        warm, items = _workloads.build(ngstate, args.workload, args.seed, work_dir)
        _run_pass([warm], trace=False)  # a failure here shows again in the items
        print("@ready", flush=True)
        # the machine's speed right after set-up, to scale the set-up time
        print("@speed %r" % calibrate.speed_factor(
            calibrate.measure(SETUP_CAL_UNITS), SETUP_CAL_UNITS), flush=True)
        if args.setup_only:
            return 0

        # digests are taken, and at seed 0 compared, on the first pass only
        reference = None
        if args.seed == 0 and not args.emit_digests:
            with open(REFERENCE_PATH, encoding="ascii") as fh:
                reference = json.load(fh).get(args.workload, {})
        digests = {} if (reference is not None or args.emit_digests) else None

        plain, traced, failures, tracers = [], [], [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for trace in ((False, True) if args.trace else (False,)):
                lat, scaled, out, tr, speed = _run_pass(items, trace,
                                                        sample=not args.trace)
                (traced if trace else plain).append((lat, scaled, speed))
                if tr is not None:
                    tracers.append(tr)
                first = len(failures) == 0
                failures += _check(items, out, reference if first else None,
                                   digests if first else None)
            step = time.perf_counter() - t0
            if time.perf_counter() - start + step > args.seconds:
                break

        result = {
            "attempted": len(failures),
            "failed": sum(1 for f in failures if f),
            "failures": [msg for f in failures for msg in f][:20],
            "pass_walls_s": [sum(lat) for lat, _, _ in plain],
            "traced_pass_walls_s": [sum(lat) for lat, _, _ in traced],
        }
        if args.trace:
            per_pass = [tr.metrics() for tr in tracers]
            metrics = {name: statistics.median(m[name] for m in per_pass)
                       for name in per_pass[0]}
            metrics["trace.overhead_frac"] = (
                statistics.median(sum(lat) for lat, _, _ in traced)
                / statistics.median(sum(lat) for lat, _, _ in plain) - 1.0)
            result["metrics"] = metrics
            os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
            tracers[-1].write_spans(os.path.join(
                HERE, "traces", f"{args.workload}-seed{args.seed}.csv"))
        else:
            walls = [sum(scaled) for _, scaled, _ in plain]
            if args.workload == "api_requests":  # a request is one item
                latencies = [x for _, scaled, _ in plain for x in scaled]
            else:  # a request is one pass: every preset of the workload
                latencies = walls
            result["metrics"] = {
                "wall_s": statistics.median(walls),
                "req_p50_ms": 1e3 * statistics.median(latencies),
                "req_p95_ms": 1e3 * _percentile(latencies, 0.95),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            result["pass_speeds"] = [k for _, _, k in plain]
            result["raw_wall_s"] = statistics.median(sum(lat) for lat, _, _ in plain)
            result["latency_samples"] = len(latencies)
        if args.emit_digests:
            result["digests"] = digests
        print("@result " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
