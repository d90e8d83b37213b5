"""The workflow's "Installed package" and "Benchmark smoke run" steps.

Each step is read from .github/workflows/tier1.yml, not copied, so the step
and this check cannot drift apart.  The installed-package commands run in a
temporary directory under bash -e (a run step's shell), with the step's
env, against a copy of the package behind an `ngstate` script made from the
console entry point of pyproject.toml: no source tree on the path, no
PYTHONPATH.  Of the benchmark smoke step, the metric names it checks are
matched against BENCHMARK.json, and its inline result checker is fed
synthetic result lines; the benchmark itself does not run here.
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _step(name):
    """(env, run script) of the workflow step called name."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {name}")
    indent = len(lines[start]) - len(lines[start].lstrip())
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].strip() and len(lines[i]) - len(lines[i].lstrip()) <= indent),
               len(lines))
    step = lines[start + 1:end]
    key = indent + 2  # the step's own keys: "name", "env", "run", ...

    def block(head):
        at = next((i for i, line in enumerate(step) if line.startswith(" " * key + head)),
                  len(step))
        body = []
        for line in step[at + 1:]:
            if line.strip() and len(line) - len(line.lstrip()) <= key:
                break
            body.append(line)
        return body

    env = dict(line.strip().split(": ", 1) for line in block("env:") if line.strip())
    run = "\n".join(line[key + 2:] for line in block("run: |"))
    return env, run


def _console_script(tmp_path):
    """bin/ngstate calling pyproject's entry point on a copy of the package."""
    target = re.search(r'^ngstate\s*=\s*"([\w.]+):(\w+)"',
                       (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    module, func = target.groups()
    site = tmp_path / "site"
    shutil.copytree(ROOT / "src" / "ngstate", site / "ngstate",
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = tmp_path / "bin" / "ngstate"
    script.parent.mkdir()
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"sys.path.insert(0, {str(site)!r})\n"
        f"from {module} import {func}\n"
        f"assert sys.modules['ngstate'].__file__.startswith({str(site)!r})\n"
        f"sys.exit({func}())\n")
    script.chmod(0o755)
    return script.parent


def test_installed_package_step_runs(tmp_path):
    env, run = _step("Installed package")
    assert env == {"PYTHONWARNINGS": "error"}
    assert "ngstate validate" in run and "cmp " in run
    runner_temp = tmp_path / "runner"
    runner_temp.mkdir()
    bin_dir = _console_script(tmp_path)
    base = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        ["bash", "-e", "-c", run], cwd=tmp_path, capture_output=True, text=True,
        env={**base, **env, "RUNNER_TEMP": str(runner_temp),
             "PATH": f"{bin_dir}{os.pathsep}{base.get('PATH', '')}"})
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert (runner_temp / "f5_alone" / "wigner_x1.csv").is_file()


def _smoke_step():
    """({array: {workload: [name or name=cap, ...]}}, checker source, loop
    workloads) of the benchmark smoke step."""
    env, run = _step("Benchmark smoke run")
    assert env == {}
    arrays = {name: {w: text.split() for w, text in re.findall(r'\[(\w+)\]="([^"]*)"', body)}
              for name, body in re.findall(r"declare -A (\w+)=\((.*?)\n\s*\)", run, re.S)}
    checker = re.search(r"python -c \\\n\s*'(.*?)' \$names$", run, re.S | re.M).group(1)
    loop = re.search(r"^for w in (.*); do$", run, re.M).group(1).split()
    return arrays, checker, loop


def test_benchmark_smoke_step_names_benchmark_metrics():
    arrays, _, loop = _smoke_step()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    assert sorted(arrays) == ["ceiling", "seen"]
    assert loop == workloads and set(arrays["seen"]) <= set(workloads)
    assert set(arrays["ceiling"]) <= set(workloads)
    named = [m for names in arrays["seen"].values() for m in names]
    named += [c.split("=")[0] for caps in arrays["ceiling"].values() for c in caps]
    assert named and set(named) <= per_layer, sorted(set(named) - per_layer)


def _verdict(checker, values, names, caps, correct=True):
    """Exit code of the step's checker on a result line of these values."""
    line = json.dumps({"correct": correct,
                       "metrics": {m: {"value": v} for m, v in values.items()}})
    return subprocess.run([sys.executable, "-c", checker, *names], input=line, text=True,
                          env={**os.environ, "CAPS": " ".join(caps)},
                          capture_output=True).returncode


def test_benchmark_smoke_checker_verdicts():
    # a line with every checked metric at 1 and each capped one at its
    # ceiling passes, traced (names and caps) or untraced (neither); a line
    # with "correct": false, a checked metric at 0 or one above its ceiling
    # fails
    arrays, checker, _ = _smoke_step()
    for w, names in arrays["seen"].items():
        caps = arrays["ceiling"].get(w, [])
        limits = {m: float(cap) for m, cap in (c.split("=") for c in caps)}
        good = {**dict.fromkeys(names, 1.0), **limits}
        assert _verdict(checker, good, names, caps) == 0, w
        assert _verdict(checker, good, [], []) == 0, w
        assert _verdict(checker, good, names, caps, correct=False) != 0, w
        assert _verdict(checker, good, [], [], correct=False) != 0, w
        assert _verdict(checker, {**good, names[0]: 0.0}, names, caps) != 0, w
        for m, cap in limits.items():
            assert _verdict(checker, {**good, m: cap * 1.01}, names, caps) != 0, (w, m)
