"""The README's ``fdvar`` examples run as written.

Its ``cat > NAME <<EOF`` heredocs are written to a scratch directory, and
each of its ``fdvar`` command lines (``fit``, ``eval``, ``sweep``,
``critical``, ``subcritical`` and ``closedform``, a trailing ``\\`` joining
two lines) runs there, so every documented input and flag stays valid under
the settings reader, the width rule and the flag rules.
"""

import re
import shlex
from pathlib import Path

from fdvar.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
HEREDOC = re.compile(r"^cat > (\S+) <<EOF\n(.*?)^EOF$", re.MULTILINE | re.DOTALL)
COMMAND = re.compile(r"^fdvar (?:fit|eval|sweep|critical|subcritical|closedform) .*$", re.M)


def test_readme_fit_eval_and_sweep_examples_run(tmp_path, monkeypatch, capsys):
    files = dict(HEREDOC.findall(README))
    commands = [shlex.split(line)[1:] for line in COMMAND.findall(README.replace("\\\n", " "))]
    assert {"config.txt", "points.csv", "sweep.json", "plane.csv"} <= set(files)
    names = ["fit", "eval", "sweep", "critical", "subcritical", "closedform"]
    assert [argv[0] for argv in commands] == names
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    assert "4/4 points succeeded" in out
    assert "points=4 fitted_slope=1.2628252699110862" in out
    assert '"classification": "vanishes"' in out and "points=1001 h(0)=" in out
