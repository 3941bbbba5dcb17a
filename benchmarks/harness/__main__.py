"""Entry point of ``python -m benchmarks.harness`` and ``python3 benchmarks/harness``."""

import sys
from pathlib import Path

# The guard also keeps the process pool's spawned workers, which re-import
# the parent's main module, from running the benchmark themselves.
if __name__ == "__main__":
    if not __package__:
        # Run as a directory or a file: the script's own directory leads
        # sys.path; the package needs the repository root there instead.
        sys.path[0] = str(Path(__file__).resolve().parent.parent.parent)
    from benchmarks.harness.cli import main

    sys.exit(main())
