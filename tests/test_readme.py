"""The README's Quick start must run against the package as it is."""

import argparse
import pathlib
import re

from ngstate import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks, "no python block under Quick start"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_command_lines_parse():
    # a line naming a deleted preset or flag fails here, without running
    text = README.read_text(encoding="utf-8")
    section = text.split("\nCommand line:", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1)
    commands = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in commands if words[:1] == ["ngstate"]]
    assert commands, "no ngstate line under Command line"
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_prose_flags_exist():
    # a flag the prose still names after it was deleted fails here
    text = README.read_text(encoding="utf-8")
    prose = text.split("\nCommand line:", 1)[1].split("\n## ", 1)[0]
    named = {flag for span in re.findall(r"`([^`]*)`", prose)
             for flag in re.findall(r"--[A-Za-z][\w-]*", span)}
    assert named, "no backticked flag under Command line"
    presets = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
    options = {opt for p in presets.values() for a in p._actions
               for opt in a.option_strings}
    assert sorted(named - options) == []
