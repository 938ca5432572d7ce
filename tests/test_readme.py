"""The README's examples run as written.

Every line of the "Command line" block goes through cli.main in a
fresh directory and must exit 0.  A line ending in "> FILE" writes its
stdout to FILE, and the line that reads f.json first runs the line
that writes it.  The "Library sketch" Python example is
executed, and the values its comments quote are checked.
"""

import shlex
from pathlib import Path

import pytest

from bellmp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, fence: str) -> str:
    # The first fenced block of the given fence under the heading.
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"\n{fence}\n", 1)[1].split("\n```", 1)[0]


COMMANDS = [shlex.split(line.split("#", 1)[0])
            for line in _block("Command line", "```").splitlines() if line.strip()]
EXPORT = next(argv for argv in COMMANDS if argv[-2:] == [">", "f.json"])


def _run_line(argv, capsys):
    # The line's exit code and stdout; a trailing "> FILE" also writes
    # the stdout to FILE, as the shell would.
    redirect = argv[-2] == ">"
    code = main(argv[1:-2] if redirect else argv[1:])
    captured = capsys.readouterr()
    if redirect:
        Path(argv[-1]).write_text(captured.out, encoding="utf-8")
    return code, captured


def test_command_block_is_found():
    assert len(COMMANDS) >= 10
    assert all(argv[0] == "bellmp" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_example_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if "f.json" in argv and argv is not EXPORT:
        assert _run_line(EXPORT, capsys)[0] == 0
    code, captured = _run_line(argv, capsys)
    assert code == 0
    assert captured.out
    assert captured.err == ""


def test_python_example_prints_what_its_comments_say(capsys):
    exec(compile(_block("Library sketch", "```python"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["2.0", "-10/3"]
    value, threshold = map(float, lines[2].split())
    assert abs(value - 2.9727) < 1e-4
    assert abs(threshold - 0.3272) < 1e-3
