"""The README's examples run as written: every fenced ``python`` block, and
every ``coverfree`` command of the ``sh`` blocks, in order, in one
temporary directory."""

import re
import shlex
from pathlib import Path

from coverfree.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(language):
    """The bodies of the README's fenced blocks in ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_python_blocks_run():
    blocks = fenced("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_commands_exit_zero(tmp_path, monkeypatch, capsys):
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in fenced("sh")
        for line in block.splitlines()
        if line.startswith("coverfree ")
    ]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
