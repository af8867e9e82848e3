import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# path.py reaches the solver through screening.screen_sequential and never
# imports solve; the benchmark lists the boundary anyway
KNOWN_MISSING = {"mixnorm.path.solve"}


def traced_boundaries() -> list[tuple[str, str, str]]:
    """The benchmark's BOUNDARIES list, read from its source without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BOUNDARIES list in {SPANS}")


def test_benchmark_boundaries_resolve():
    # the per-layer metrics wrap these module attributes; a refactor that
    # stops importing a traced function by name would drop its spans silently
    boundaries = traced_boundaries()
    assert boundaries
    missing = set()
    for module, attr, _ in boundaries:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.add(f"{module}.{attr}")
    assert missing <= KNOWN_MISSING
