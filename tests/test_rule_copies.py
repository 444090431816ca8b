"""Each input quantity's rule is stated once, in ``fdvar/errors.py``.

Every other module calls ``positive_int``, ``positive_real``,
``nonnegative_real`` or ``finite_real``; a message of its own about one of
the grid and solver quantities would be a second copy of a rule.
"""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fdvar"
QUANTITIES = (
    "d", "dimension", "M", "delta_xi", "alpha", "lambda", "lam", "sigma",
    "solve_tolerance", "memory_budget_mb",
)  # fmt: skip
COPY = re.compile(rf"\b({'|'.join(QUANTITIES)}) must be\b")


def test_rules_stated_only_in_errors():
    assert COPY.search('raise ValueError("alpha must be positive")')  # the guard sees a copy
    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if COPY.search(line):
                copies.append(f"{path.name}:{lineno}: {line.strip()}")
    assert copies == []
