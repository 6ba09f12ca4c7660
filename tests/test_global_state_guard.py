"""Regression guard: no new process-global mutable state.

A ``global`` statement rebinds a module-level name for every thread in
the process, so a server thread that reaches it can change another
thread's behaviour.  The package's ``global`` statements are pinned
here, one ``(module, name)`` pair each; a new one fails the suite until
it is either removed or added to :data:`ALLOWED` on purpose.

- ``repro.nn.init._rng``: the seeded initialiser stream (``set_rng``).
- ``repro.obs.trace._ENABLED``: the tracing switch.
- ``repro.obs.profiler._ACTIVE``: the one enabled ``OpProfiler``.
- ``repro.obs.logging._HANDLER``: the structured-log handler.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ALLOWED = {
    ("repro.nn.init", "_rng"),
    ("repro.obs.trace", "_ENABLED"),
    ("repro.obs.profiler", "_ACTIVE"),
    ("repro.obs.logging", "_HANDLER"),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def global_statements():
    """Every ``(module, name)`` a ``global`` statement under ``src/repro`` binds."""
    found = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Global):
                found.update((_module_name(path), name) for name in node.names)
    return found


def test_global_statements_are_exactly_the_pinned_set():
    found = global_statements()
    assert found == ALLOWED, (
        f"new process-global state: {sorted(found - ALLOWED)}; "
        f"pinned but gone (drop from ALLOWED): {sorted(ALLOWED - found)}"
    )


def test_guard_sees_global_statements():
    # the fence is only meaningful if the walk finds the known ones
    tree = ast.parse("def f():\n    global x\n    x = 1\n")
    assert any(isinstance(node, ast.Global) for node in ast.walk(tree))
    assert ("repro.nn.init", "_rng") in global_statements()
