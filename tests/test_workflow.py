"""The workflow's "Installed package" step, run as the workflow runs it.

The step's commands are read from .github/workflows/tier1.yml, not copied,
so the step and this check cannot drift apart.  They run in a temporary
directory under bash -e (a run step's shell), with the step's env, against
a copy of the package behind an `ngstate` script made from the console
entry point of pyproject.toml: no source tree on the path, no PYTHONPATH.
"""

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
        at = next(i for i, line in enumerate(step) if line.startswith(" " * key + head))
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
