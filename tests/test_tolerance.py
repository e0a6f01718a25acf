"""Float slacks live in one table: no loose small literal in the library.

Every float constant in (0, 1e-6) under ``src/hddiamond`` must be one of
the three named scales in ``_tolerance.py``, one of the LP engine's own
named thresholds, or the rate cost model's scan time unit.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hddiamond"

#: (module, assignment target qualified by its enclosing functions) whose
#: value may hold small float literals.
EXEMPT = {
    ("_tolerance", "ROUNDOFF"),
    ("_tolerance", "AGREE"),
    ("_tolerance", "SETTLED"),
    ("simplex", "_TOL"),
    ("simplex", "_EPS_ZERO_RHS"),
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
    from hddiamond._tolerance import AGREE, ROUNDOFF, SETTLED

    assert 0 < ROUNDOFF < AGREE < SETTLED < 1e-6
