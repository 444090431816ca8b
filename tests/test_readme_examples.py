"""The README's fit, eval and sweep examples run as written.

Its ``cat > NAME <<EOF`` heredocs are written to a scratch directory, and
its ``fdvar fit``, ``fdvar eval`` and ``fdvar sweep`` lines run there, so
every documented input stays valid under the settings reader.
"""

import re
import shlex
from pathlib import Path

from fdvar.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
HEREDOC = re.compile(r"^cat > (\S+) <<EOF\n(.*?)^EOF$", re.MULTILINE | re.DOTALL)
COMMAND = re.compile(r"^fdvar (?:fit|eval|sweep) .*$", re.MULTILINE)


def test_readme_fit_eval_and_sweep_examples_run(tmp_path, monkeypatch, capsys):
    files = dict(HEREDOC.findall(README))
    commands = [shlex.split(line)[1:] for line in COMMAND.findall(README)]
    assert {"config.txt", "points.csv", "sweep.json"} <= set(files)
    assert [argv[0] for argv in commands] == ["fit", "eval", "sweep"]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, capsys.readouterr().err
    assert "4/4 points succeeded" in capsys.readouterr().out
