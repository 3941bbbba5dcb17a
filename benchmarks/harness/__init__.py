"""The repository's benchmark: five named workloads over 100k-atom datasets.

Run ``python -m benchmarks.harness`` (or ``python3 benchmarks/harness``) from
the repository root; ``README.md`` in this directory is the metric and
workload glossary, ``BENCHMARK.json`` at the root is the machine-readable
contract.
"""

import sys
from pathlib import Path

# ``benchmarks/`` is a namespace package whose entry points import
# ``bench_common`` as a top-level module; importing it also puts ``src/`` on
# ``sys.path``, exactly as for every ``bench_*`` script.
_BENCHMARKS = str(Path(__file__).resolve().parent.parent)
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

import bench_common  # noqa: E402,F401
