"""Each input rule is stated once.

The rule of each grid and solver quantity lives in ``fdvar/errors.py``:
every other module calls ``positive_int``, ``positive_real``,
``nonnegative_real`` or ``finite_real``, and a message of its own about one
of those quantities would be a second copy of a rule.  The rule of a
spectral weight's name lives in ``fdvar/critical.py``, as ``checked_weight``.
A number read from a file is checked by ``finite_real`` or a rule beside it,
so no other module words a finiteness check of its own.  Text becomes a
number only in ``io.number_or_text``: no argparse ``type=float`` or
``type=int``, and no ``float`` or ``int`` of text, anywhere else.
"""

import ast
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


READER = "number_or_text"
TEXT_METHODS = {"split", "rsplit", "strip", "lstrip", "rstrip", "splitlines", "partition", "read"}
PARENT_CLI = """
def _parse_grid_spec(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    return _checked_grid(float(parts[0]), float(parts[1]), int(parts[2]), spec)


def _cmd_subcritical(args) -> int:
    sigmas = [float(s) for s in args.sigmas.split(",") if s.strip()]


def build_parser(p_cf, p_verify):
    p_cf.add_argument("--M", type=int, required=True, help="band limit in lattice steps")
    p_cf.add_argument("--delta-xi", type=float, required=True, help="frequency mesh size")
    p_verify.add_argument("--seed", type=int, default=0)
"""  # lines of cli.py before every numeric text went through the reader


def text_to_number(source):
    """Line numbers of ``source`` outside ``READER`` that turn text into a number.

    That is an argparse ``type=float`` or ``type=int``, ``map(float, ...)``, or
    ``float``/``int`` of text: a string literal, a ``str`` parameter, a CLI
    namespace's attribute, or a name, item or loop variable taken from a string
    method such as ``split`` or ``strip``.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg == "type" and _is_number_type(node.value):
            found.add(node.value.lineno)
        if isinstance(node, ast.Call) and _name(node.func) == "map" and node.args:
            if _is_number_type(node.args[0]):
                found.add(node.lineno)
        if isinstance(node, ast.FunctionDef) and node.name != READER:
            text = {a.arg for a in node.args.args if _name(a.annotation) == "str"}
            for _ in range(3):  # names bound from text, to a fixed point for short chains
                for child in ast.walk(node):
                    for target, value in _bindings(child):
                        if _is_text(value, text):
                            text |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
            for child in ast.walk(node):
                if isinstance(child, ast.Call) and _is_number_type(child.func) and child.args:
                    if _is_text(child.args[0], text):
                        found.add(child.lineno)
    return sorted(found)


def _name(node):
    return node.id if isinstance(node, ast.Name) else None


def _is_number_type(node):
    return _name(node) in ("float", "int")


def _bindings(node):
    if isinstance(node, ast.Assign):
        return [(target, node.value) for target in node.targets]
    if isinstance(node, (ast.comprehension, ast.For)):
        return [(node.target, node.iter)]
    return []


def _is_text(node, text):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, ast.Name):
        return node.id in text
    if isinstance(node, ast.Subscript):
        return _is_text(node.value, text)
    if isinstance(node, ast.Attribute):
        return _name(node.value) == "args"
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr in TEXT_METHODS
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        return _is_text(node.elt, text)
    return False


def test_text_becomes_a_number_only_in_the_reader():
    # the guard sees each of the parent's routes: the grid parts, --sigmas and argparse types
    assert text_to_number(PARENT_CLI) == [4, 8, 12, 13, 14]
    copies = {
        path.name: text_to_number(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in copies.items() if lines} == {}
