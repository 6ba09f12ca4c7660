#!/usr/bin/env python3
"""``repro.cli`` with the benchmark's window probes installed.

The traced serve run starts the server through this launcher so that
window assembly shows up as ``window.build`` / ``window.absorb`` spans
next to the spans the server records itself (``serve --trace PATH``).
Arguments are passed to ``repro.cli`` unchanged.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common as C  # noqa: E402

if __name__ == "__main__":
    C.bootstrap()
    from perfbench.probes import install_window_probes
    from repro.cli import main

    install_window_probes()
    sys.exit(main(sys.argv[1:]))
