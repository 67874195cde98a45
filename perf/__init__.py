"""The repo's one benchmark: six named workloads, end-to-end + per-layer
metrics, and a traced run.  See ``perf/README.md``.

Everything here drives the program through its public surface only
(``repro.api``, ``repro.experiments.common``, ``repro.obs``) and lives
outside ``src/`` so that a change claiming a gain cannot edit what it is
measured with.  The driver runs ``python3 perf/run.py`` from a bare
checkout without ``PYTHONPATH``, so the package puts ``src/`` on the path
itself.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
