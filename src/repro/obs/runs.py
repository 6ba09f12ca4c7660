"""Cross-run observability: the append-only run ledger.

Everything in-process (:mod:`repro.obs.metrics`, spans, the profiler)
dies with the process; the **run ledger** is the durable record.  One
JSONL file (``runs/ledger.jsonl`` by default, ``REPRO_RUN_LEDGER``
overrides) holds one schema'd record per train / eval / bench / seed
run: run id, ISO timestamp, git SHA, config fingerprint, dtype, seed,
dataset, final metric gauges, and bench measurements.  The trainer,
experiment runner, multi-seed runner, CLI, and every ``benchmarks/``
script emit through :class:`RunLedger` (or the convenience
:func:`write_bench_report`), so metric and throughput trajectories are
queryable long after the processes that produced them exited —
``repro report`` renders them and :mod:`repro.obs.regress` compares a
new run against the rolling baseline they form.

Records are plain dicts.  The versioned envelope (``SCHEMA_VERSION``)
is built by :func:`build_record`; unknown extra fields are preserved,
corrupt lines are skipped on read (an append-only log must survive
partial writes), and appends are atomic at line granularity.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import threading
import time
import uuid
from typing import Dict, Iterable, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "RunLedger",
    "build_record",
    "config_fingerprint",
    "default_ledger",
    "default_ledger_path",
    "flatten_metrics",
    "git_sha",
    "new_run_id",
    "write_bench_report",
]

SCHEMA_VERSION = 1

#: Environment variable overriding the default ledger location.
LEDGER_ENV = "REPRO_RUN_LEDGER"

#: Default ledger path (relative to the working directory).
DEFAULT_LEDGER_PATH = os.path.join("runs", "ledger.jsonl")

_GIT_SHA_CACHE: Dict[str, Optional[str]] = {}


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Short git SHA of the working tree, or ``None`` outside a repo.

    Cached per directory for the process lifetime (one subprocess per
    run, not one per record).  ``REPRO_GIT_SHA`` overrides — useful in
    CI where the checkout may be detached or shallow.
    """
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    key = os.path.abspath(cwd or os.getcwd())
    if key not in _GIT_SHA_CACHE:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=key,
                capture_output=True,
                text=True,
                timeout=5,
            )
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
        _GIT_SHA_CACHE[key] = sha or None
    return _GIT_SHA_CACHE[key]


def config_fingerprint(config: Optional[Dict]) -> Optional[str]:
    """Stable 12-hex digest of a config dict (key order irrelevant)."""
    if not config:
        return None
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def new_run_id() -> str:
    """Sortable run identifier: UTC timestamp + 6 random hex chars."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


def build_record(
    kind: str,
    *,
    model: Optional[str] = None,
    dataset: Optional[str] = None,
    seed: Optional[int] = None,
    config: Optional[Dict] = None,
    metrics: Optional[Dict[str, float]] = None,
    bench: Optional[Dict] = None,
    extra: Optional[Dict] = None,
    run_id: Optional[str] = None,
) -> Dict[str, object]:
    """One versioned ledger record (see ``docs/run_ledger.md``)."""
    record: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id or new_run_id(),
        "kind": str(kind),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        "git_sha": git_sha(),
        # the tensor engine's one dtype (repro.nn.tensor.DTYPE)
        "dtype": "float64",
    }
    if model is not None:
        record["model"] = str(model)
    if dataset is not None:
        record["dataset"] = str(dataset)
    if seed is not None:
        record["seed"] = int(seed)
    if config:
        record["config"] = dict(config)
        record["config_fingerprint"] = config_fingerprint(config)
    if metrics:
        record["metrics"] = {
            k: (float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v)
            for k, v in metrics.items()
        }
    if bench:
        record["bench"] = bench
    if extra:
        record["extra"] = {k: v for k, v in extra.items() if v is not None}
    return record


def flatten_metrics(record: Dict) -> Dict[str, float]:
    """All numeric measurements of a record under dotted keys.

    Merges ``record["metrics"]`` with the numeric leaves of
    ``record["bench"]["measurements"]`` (nested dicts become
    ``a.b.c`` keys) — the comparable surface used by
    :mod:`repro.obs.regress` and ``repro report``.
    """
    out: Dict[str, float] = {}

    def visit(prefix: str, value) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            out[prefix] = float(value)
        elif isinstance(value, dict):
            for key, sub in value.items():
                visit(f"{prefix}.{key}" if prefix else str(key), sub)

    visit("", record.get("metrics") or {})
    bench = record.get("bench") or {}
    visit("", bench.get("measurements") or {})
    return out


def default_ledger_path() -> str:
    """``$REPRO_RUN_LEDGER`` or ``runs/ledger.jsonl`` under the cwd."""
    return os.environ.get(LEDGER_ENV) or DEFAULT_LEDGER_PATH


class RunLedger:
    """Append-only JSONL store of run records.

    Appends are serialized by a lock and written as single
    ``write()`` calls of one line, so concurrent writers interleave at
    record granularity.  Reads tolerate trailing partial lines and
    foreign garbage (skipped, counted in :attr:`skipped_lines`).
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path or default_ledger_path()
        self.skipped_lines = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def append(self, record: Optional[Dict] = None, /, **fields) -> Dict[str, object]:
        """Append one record (a prebuilt dict or ``build_record`` fields)."""
        if record is None:
            record = build_record(fields.pop("kind", "run"), **fields)
        elif fields:
            raise TypeError("pass a prebuilt record or build_record fields, not both")
        line = json.dumps(record, default=str) + "\n"
        with self._lock:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
        return record

    # ------------------------------------------------------------------
    def records(
        self,
        kind: Optional[str] = None,
        model: Optional[str] = None,
        dataset: Optional[str] = None,
    ) -> List[Dict]:
        """All parseable records, in append order, optionally filtered."""
        self.skipped_lines = 0
        out: List[Dict] = []
        if not os.path.exists(self.path):
            return out
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    self.skipped_lines += 1
                    continue
                if not isinstance(record, dict):
                    self.skipped_lines += 1
                    continue
                if kind is not None and record.get("kind") != kind:
                    continue
                if model is not None and record.get("model") != model:
                    continue
                if dataset is not None and record.get("dataset") != dataset:
                    continue
                out.append(record)
        return out

    def last(self, n: int = 1, **filters) -> List[Dict]:
        """The most recent ``n`` matching records (oldest first)."""
        matching = self.records(**filters)
        return matching[-n:] if n > 0 else []

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records():
            key = str(record.get("kind", "unknown"))
            counts[key] = counts.get(key, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.records())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLedger({self.path!r})"


def default_ledger() -> RunLedger:
    """A ledger on the default path (cheap to construct; no I/O)."""
    return RunLedger(default_ledger_path())


def write_bench_report(
    name: str,
    measurements: Dict,
    *,
    path: Optional[str] = None,
    ledger: Optional[RunLedger] = None,
    dataset: Optional[str] = None,
    model: Optional[str] = None,
    seed: Optional[int] = None,
    config: Optional[Dict] = None,
    extra: Optional[Dict] = None,
) -> Dict[str, object]:
    """The shared schema'd writer behind every ``BENCH_*.json``.

    Builds one ``kind="bench"`` record whose ``bench`` block carries the
    benchmark name and raw measurements, optionally writes it as a
    standalone JSON artifact at ``path``, and appends it to ``ledger``
    (the default ledger unless ``ledger=False`` disables emission).
    Returns the full record.
    """
    record = build_record(
        "bench",
        model=model,
        dataset=dataset,
        seed=seed,
        config=config,
        bench={"name": str(name), "measurements": measurements},
        extra=extra,
    )
    if path:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, default=str)
            handle.write("\n")
    if ledger is not False:
        # explicit None check: an empty RunLedger is falsy (len() == 0)
        target = default_ledger() if ledger is None else ledger
        target.append(record)
    return record
