"""Each input rule is stated once.

The rule of each grid and solver quantity lives in ``fdvar/errors.py``:
every other module calls ``positive_int``, ``positive_real``,
``nonnegative_real`` or ``finite_real``, and a message of its own about one
of those quantities would be a second copy of a rule.  The rule of a
spectral weight's name lives in ``fdvar/critical.py``, as ``checked_weight``.
A number read from a file is checked by ``finite_real`` or a rule beside it,
so no other module words a finiteness check of its own.
"""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fdvar"
QUANTITIES = (
    "d", "dimension", "M", "delta_xi", "alpha", "lambda", "lam", "sigma",
    "solve_tolerance", "memory_budget_mb",
)  # fmt: skip
COPY = re.compile(rf"\b({'|'.join(QUANTITIES)}) must be\b")
WEIGHT_COPY = re.compile(r"unknown weight|weight must be")
NUMBER_COPY = re.compile(r"not finite|not JSON numbers|must be a finite number")


def copies_outside(pattern, home):
    """Lines of the package, outside the module ``home``, that match ``pattern``."""
    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == home:
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if pattern.search(line):
                copies.append(f"{path.name}:{lineno}: {line.strip()}")
    return copies


def test_rules_stated_only_in_errors():
    assert COPY.search('raise ValueError("alpha must be positive")')  # the guard sees a copy
    assert copies_outside(COPY, "errors.py") == []


def test_weight_rule_stated_only_in_critical():
    assert WEIGHT_COPY.search('raise ValueError(f"unknown weight {weight!r}")')
    assert copies_outside(WEIGHT_COPY, "critical.py") == []


def test_number_check_worded_only_in_errors():
    assert NUMBER_COPY.search('raise ValueError(f"pair {i} is {pair!r}, not finite")')
    assert copies_outside(NUMBER_COPY, "errors.py") == []
