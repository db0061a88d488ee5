"""The README's examples run as written: every fenced ``python`` block, and
every ``coverfree`` command of the ``sh`` blocks, in order, in one
temporary directory, each printing the ``# →`` lines noted under it."""

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


def test_commands_print_what_the_readme_says(tmp_path, monkeypatch, capsys):
    # (argv, lines it prints), a "# → line" under a command naming one
    commands = []
    for block in fenced("sh"):
        for line in block.splitlines():
            if line.startswith("coverfree "):
                commands.append((shlex.split(line, comments=True)[1:], []))
            elif line.startswith("# → ") and commands:
                commands[-1][1].append(line[len("# → "):])
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv, printed in commands:
        assert printed, argv
        assert main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        assert all(line in out for line in printed), (argv, printed)
