"""/metrics golden: family name -> (type, sorted label names).

A served engine in a fresh interpreter runs a fixed ingest + predict
sequence, then its ``/metrics`` families are compared with the
checked-in ``metrics_families.golden.json``.  Any rename, type change,
label change, added or dropped family fails here; when a change is
intended, replace the golden with the JSON printed in the failure.
"""

import json
import os
import subprocess
import sys

GOLDEN = os.path.join(os.path.dirname(__file__), "metrics_families.golden.json")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

_SCRIPT = r"""
import json
import urllib.request

from repro.baselines import build_model
from repro.nn.serialization import save_checkpoint
from repro.obs.metrics import get_registry, parse_prometheus_text
from repro.serving import InferenceEngine, serve_in_thread

save_checkpoint(build_model("distmult", 20, 4, dim=8), "model.npz", metadata={
    "model": "distmult", "num_entities": 20, "num_relations": 4, "dim": 8,
    "window": {"history_length": 2, "use_global": True},
})
engine = InferenceEngine.from_checkpoint("model.npz")
server, _ = serve_in_thread(engine)


def post(path, payload):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    urllib.request.urlopen(request, timeout=30).read()


try:
    for t in range(3):
        post("/ingest", {"events": [[t, 0, t + 1], [t + 2, 1, t]], "timestamp": t,
                         "flush": True})
    post("/predict", {"subject": 1, "relation": 0})
    post("/predict", {"subject": 1, "relation": 0})
    post("/predict", {"queries": [{"subject": 2, "relation": 1},
                                  {"subject": 3, "relation": 0, "inverse": True}]})
    with urllib.request.urlopen(server.url + "/metrics", timeout=30) as response:
        text = response.read().decode()
finally:
    server.shutdown()
    server.server_close()

types = {}
for line in text.splitlines():
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split()
        types[name] = kind
print(json.dumps({
    name: [kind, sorted(get_registry().get(name).labelnames)]
    for name, kind in sorted(types.items())
}, indent=1))
"""


def test_metrics_families_match_golden(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_RUN_LEDGER", None)
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    assert got == expected, "metrics families changed; new golden:\n" + result.stdout
