"""Shared pieces of the benchmark: shapes, seeded inputs, statistics, rows.

Everything the program under test sees is generated here from the
workload seed: a :class:`~repro.data.profiles.DatasetProfile` of the
chosen shape, synthesised by
:class:`~repro.data.synthetic.SyntheticTKGGenerator`, and seeded,
untrained model weights (compute cost does not depend on weight values).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Dataset shapes.  ``icews14`` is the benchmark's shape (ICEWS14's
# vocabulary and snapshot size); ``tiny`` only serves the self-test.
SHAPES: Dict[str, Dict[str, int]] = {
    "icews14": {
        "num_entities": 7128,
        "num_relations": 230,
        "num_timestamps": 365,
        "facts_per_snapshot": 250,
    },
    "tiny": {
        "num_entities": 60,
        "num_relations": 8,
        "num_timestamps": 150,
        "facts_per_snapshot": 24,
    },
}

# The model under test: HisRES with the global relevance graph on.
MODEL = {"key": "hisres", "dim": 32, "history_length": 4, "granularity": 2, "use_global": True}
# The copy-mode baseline whose walk goes through the fused decode path.
COPY_MODEL = {"key": "cygnet", "dim": 32, "history_length": 2, "granularity": 2, "use_global": False}


class SourceMissing(SystemExit):
    """Raised when the checkout holds no program to benchmark."""


def bootstrap() -> None:
    """Make ``src/`` importable; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"perfbench: no program found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for server processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def scratch_dir(name: str) -> Path:
    """A fresh directory under the checkout's ``.perfbench/`` tree."""
    path = OUT / "tmp" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_scratch() -> None:
    """Drop this process's scratch directories (see :func:`scratch_dir`)."""
    for path in (OUT / "tmp").glob(f"*-{os.getpid()}"):
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# seeded inputs


def make_profile(shape: str, seed: int):
    from repro.data.profiles import DatasetProfile

    return DatasetProfile(
        name=f"{shape}_shape", time_granularity="1 day", seed=seed, **SHAPES[shape]
    )


def synthesize(shape: str, seed: int):
    from repro.data.synthetic import SyntheticTKGGenerator

    return SyntheticTKGGenerator(make_profile(shape, seed), seed=seed).generate()


def window_config(spec: Dict, track_vocabulary: bool = False):
    from repro.core.config import WindowConfig

    return WindowConfig(
        history_length=spec["history_length"],
        granularity=spec["granularity"],
        use_global=spec["use_global"],
        track_vocabulary=track_vocabulary,
    )


def build_model(spec: Dict, dataset, seed: int):
    """Seeded, untrained model of ``spec``."""
    from repro.baselines import build_model as registry_build
    from repro.training.seeding import seed_everything

    seed_everything(seed)
    kwargs = {"history_length": spec["history_length"]} if spec["key"] == "hisres" else {}
    return registry_build(
        spec["key"], dataset.num_entities, dataset.num_relations, dim=spec["dim"], **kwargs
    )


def write_checkpoint(model, dataset, path: Path) -> None:
    """Checkpoint with the metadata ``InferenceEngine.from_checkpoint`` reads."""
    from repro.nn.serialization import save_checkpoint

    save_checkpoint(
        model,
        str(path),
        metadata={
            "format": 1,
            "model": MODEL["key"],
            "dataset": dataset.name,
            "num_entities": dataset.num_entities,
            "num_relations": dataset.num_relations,
            "dim": MODEL["dim"],
            "window": window_config(MODEL).to_dict(),
        },
    )


def dataset_shape(dataset) -> Dict[str, object]:
    """The generated dataset as it came out (recorded on every row)."""
    return {
        "profile": dataset.name,
        "entities": int(dataset.num_entities),
        "relations": int(dataset.num_relations),
        "facts": int(len(dataset)),
        "snapshots": int(dataset.num_timestamps),
        "split_timestamps": [
            int(len(split.timestamps)) for split in (dataset.train, dataset.valid, dataset.test)
        ],
    }


# ----------------------------------------------------------------------
# statistics


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of pre-sorted values (numpy's default)."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    pos = (n - 1) * q
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> Optional[int]:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            return p
    return None


def summarize(values: Iterable[float], unit: str) -> Dict[str, object]:
    """Median, quartiles and the highest supported tail percentile."""
    ordered = sorted(float(v) for v in values)
    out: Dict[str, object] = {"unit": unit, "n": len(ordered)}
    if not ordered:
        return out
    out.update(
        median=quantile(ordered, 0.5),
        q1=quantile(ordered, 0.25),
        q3=quantile(ordered, 0.75),
    )
    p = tail_percentile(len(ordered))
    if p is not None:
        out["tail_percentile"] = p
        out["tail"] = quantile(ordered, p / 100.0)
    return out


def rate(count: float, seconds: float, unit: str) -> Dict[str, object]:
    return {"unit": unit, "n": int(count), "value": count / seconds if seconds > 0 else 0.0,
            "seconds": seconds}


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


# ----------------------------------------------------------------------
# process accounting


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def source_identity() -> Dict[str, str]:
    """Git SHA when the checkout is a repository, plus a digest of ``src``."""
    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_digest": digest.hexdigest()[:16]}


def row_path(workload: str, seed: int, trace: bool, shape: str) -> Path:
    return OUT / "rows" / f"{workload}-{shape}-seed{seed}-trace{int(trace)}.json"


def write_row(row: Dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(row, fh, indent=1, sort_keys=True, default=float)


def read_row(path: Path) -> Optional[Dict]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
