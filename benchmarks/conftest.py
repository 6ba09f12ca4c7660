"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper and prints
it.  Training runs take seconds-to-minutes, so every benchmark uses
``benchmark.pedantic(..., rounds=1, iterations=1)`` — the timing
recorded is the single end-to-end regeneration.

Scale with ``REPRO_BENCH_SCALE``: smoke | default | full (see
``repro.experiments.runner``).
"""

import os
import sys

import pytest

# Tables are written twice so they survive pytest's stdout capture: to
# the real stdout (so `pytest ... | tee bench_output.txt` records them
# live) and to the captured stdout (shown on failures).  The durable
# record of every benchmark is its run-ledger entry (see emit_bench).


@pytest.fixture(scope="session")
def bench_scale_name():
    return os.environ.get("REPRO_BENCH_SCALE", "default")


def print_table(title: str, rows, columns):
    """Uniform table printer used by all benchmark reports."""
    lines = [f"\n=== {title} ==="]
    header = " | ".join(f"{c:>12}" for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            cells.append(f"{value:>12.2f}" if isinstance(value, float) else f"{value!s:>12}")
        lines.append(" | ".join(cells))
    text = "\n".join(lines)
    print(text)
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()


def report(message: str) -> None:
    """Capture-proof single-line report (deviations, notes)."""
    print(message)
    sys.__stdout__.write(message + "\n")
    sys.__stdout__.flush()


def emit_bench(name: str, measurements, *, json_path=None, dataset=None,
               model=None, seed=None, config=None):
    """Emit one benchmark result through the shared schema'd writer.

    Every benchmark script reports through this single choke point: the
    measurements are wrapped in a versioned record (schema version,
    timestamp, git SHA, dtype, seed), appended to the run ledger
    (``runs/ledger.jsonl``; ``REPRO_RUN_LEDGER`` overrides), optionally
    written as a standalone ``BENCH_*.json`` artifact, and echoed as a
    capture-proof report line.  Returns the full record.
    """
    import json as _json

    from repro.obs.runs import write_bench_report

    record = write_bench_report(
        name, measurements, path=json_path, dataset=dataset, model=model,
        seed=seed, config=config,
    )
    report(f"{name}_json: " + _json.dumps(record))
    return record
