"""Float slacks live in one table, and one rule applies them.

Every float constant in (0, 1e-6) under ``src/hddiamond`` must be one of
the three named scales in ``_tolerance.py``, one of the LP engine's own
named thresholds, or the rate cost model's scan time unit.  No comparison
outside ``_tolerance.py`` adds or subtracts a scale itself: scalar checks
call ``_tolerance.below``, which compares exact values exactly.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

from hddiamond._tolerance import AGREE, ROUNDOFF, SETTLED

SRC = Path(__file__).resolve().parents[1] / "src" / "hddiamond"

#: (module, assignment target qualified by its enclosing functions) whose
#: value may hold small float literals.
EXEMPT = {
    ("_tolerance", "ROUNDOFF"),
    ("_tolerance", "AGREE"),
    ("_tolerance", "SETTLED"),
    ("simplex", "_TOL"),
    ("capacity", "_solve.eps"),
    ("capacity", "_SCAN_UNIT_S"),
}


def small_floats(tree: ast.AST) -> list[tuple[str | None, int]]:
    """(assignment target or None, line) of every float constant in
    (0, 1e-6), the target qualified by its enclosing functions."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...], target: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope, target = scope + (node.name,), None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                target = ".".join(scope + (targets[0].id,))
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            if 0 < node.value < 1e-6:
                found.append((target, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, target)

    visit(tree, (), None)
    return found


def scan() -> dict[str, list[tuple[str | None, int]]]:
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    return {
        path.stem: small_floats(ast.parse(path.read_text(encoding="utf-8")))
        for path in paths
    }


def test_no_loose_small_float_literals():
    loose = [
        f"{module}.py:{line} ({target or 'no named target'})"
        for module, hits in scan().items()
        for target, line in hits
        if (module, target) not in EXEMPT
    ]
    assert not loose, "float slacks outside the tolerance table: " + ", ".join(loose)


def test_every_exemption_is_still_used():
    used = {(module, target) for module, hits in scan().items() for target, _ in hits}
    assert EXEMPT <= used, EXEMPT - used


def test_the_scan_sees_a_loose_literal():
    hits = small_floats(ast.parse("def f(x):\n    return x < 1 - 1e-9\n"))
    assert hits == [(None, 2)]


def test_scales_are_ordered():
    assert 0 < ROUNDOFF < AGREE < SETTLED < 1e-6


SCALES = {"ROUNDOFF", "AGREE", "SETTLED"}

#: (module, enclosing functions) -> how many comparisons there may still
#: add or subtract a scale: float-only array comparisons, which ``below``
#: does not take.
SLACK_EXEMPT: dict[tuple[str, str], int] = {}


def _shifts_by_a_scale(node: ast.AST) -> bool:
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))):
        return False
    return any(
        (isinstance(side, ast.Name) and side.id in SCALES)
        or (isinstance(side, ast.Attribute) and side.attr in SCALES)
        for side in (node.left, node.right)
    )


def slack_comparisons(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing functions, line) of every comparison with an operand that
    adds or subtracts one of the scales."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_shifts_by_a_scale(n) for op in operands for n in ast.walk(op)):
                found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def scan_comparisons() -> dict[tuple[str, str], list[int]]:
    """Lines of the comparisons that add or subtract a scale, by (module,
    enclosing functions), outside ``_tolerance.py``."""
    found: dict[tuple[str, str], list[int]] = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "_tolerance":
            for scope, line in slack_comparisons(ast.parse(path.read_text(encoding="utf-8"))):
                found.setdefault((path.stem, scope), []).append(line)
    return found


def test_no_comparison_applies_a_slack_itself():
    loose = [
        f"{module}.py:{lines} ({scope or 'module level'})"
        for (module, scope), lines in scan_comparisons().items()
        if len(lines) > SLACK_EXEMPT.get((module, scope), 0)
    ]
    assert not loose, "comparisons that bypass _tolerance.below: " + ", ".join(loose)


def test_every_slack_exemption_is_still_used():
    found = scan_comparisons()
    unused = {key: n for key, n in SLACK_EXEMPT.items() if len(found.get(key, ())) != n}
    assert not unused, unused


def test_the_comparison_scan_sees_a_slack():
    hits = slack_comparisons(ast.parse(
        "def f(x, y):\n"
        "    if x < y - SETTLED or x + tol.AGREE > y or (x - y) * 2 <= ROUNDOFF:\n"
        "        return below(x, y, SETTLED)\n"
        "    return x > y + (ROUNDOFF - 1)\n"
    ))
    assert hits == [("f", 2), ("f", 2), ("f", 4)]


def test_below_compares_exact_values_exactly():
    from hddiamond._tolerance import below

    assert below(F(1, 2) - F(1, 10**30), F(1, 2), SETTLED)
    assert below(0, F(1, 10**30), SETTLED)
    assert not below(F(1, 2), F(1, 2), SETTLED)
    assert not below(F(1, 2), F(1, 2) - F(1, 10**30), SETTLED)


def test_below_keeps_the_float_slack():
    from hddiamond._tolerance import below

    assert not below(0.5 - SETTLED / 2, 0.5, SETTLED)
    assert below(0.5 - 2 * SETTLED, 0.5, SETTLED)
    # One float side is enough for the slack.
    assert not below(F(1, 2) - F(1, 10**30), 0.5, SETTLED)
    assert not below(0.5, F(1, 2) + F(1, 10**30), SETTLED)
