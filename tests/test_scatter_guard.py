"""Regression guard: the per-element scatter path must not creep back.

Every row reduction in the package runs on the sorted-layout
``reduceat`` kernel of ``repro.nn.segment``.  ``np.add.at`` /
``np.maximum.at`` are unbuffered per-element loops; reintroducing one
in a hot path would silently undo that kernel's throughput.

- ``np.maximum.at(`` and ``.scatter_add(`` fail the suite anywhere
  under ``src/repro``; their only home is the test-local oracle in
  ``tests/core/test_compute_plane.py``.
- ``np.add.at(`` fails it inside ``src/repro/core/`` and
  ``src/repro/baselines/``; it remains in cold, non-graph code
  (``Tensor.__getitem__``'s backward, dataset statistics).
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FENCED_DIRS = ("core", "baselines")
FORBIDDEN_EVERYWHERE = re.compile(r"np\.maximum\.at\(|\.scatter_add\(")
FORBIDDEN_IN_MODELS = re.compile(r"np\.add\.at\(")


def _offenders(paths, pattern):
    found = []
    for path in sorted(paths):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if pattern.search(line):
                found.append(f"{path.relative_to(SRC.parent.parent)}:{lineno}: {line.strip()}")
    return found


def test_no_scatter_primitives_in_model_code():
    offenders = _offenders(SRC.rglob("*.py"), FORBIDDEN_EVERYWHERE)
    for dirname in FENCED_DIRS:
        offenders += _offenders((SRC / dirname).rglob("*.py"), FORBIDDEN_IN_MODELS)
    assert not offenders, (
        "unbuffered scatter primitives reappeared; use repro.nn.segment "
        "ops with a compiled layout instead:\n" + "\n".join(offenders)
    )


def test_guard_scans_the_real_tree():
    # the fence is only meaningful if the directories exist and hold code
    for dirname in FENCED_DIRS:
        assert list((SRC / dirname).glob("*.py")), f"{dirname} not found — guard is vacuous"
    assert (SRC / "nn" / "segment.py").is_file(), "segment kernel not found — guard is vacuous"
