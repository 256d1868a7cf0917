#!/usr/bin/env python3
"""hexflow benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  hexflow is imported from the
checkout's `src/`, never from an installed copy; without it the benchmark
exits with code 2 and prints no result.  The last line of stdout is the
result JSON (see NOTES.md).
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"

if __name__ == "__main__":
    # Pin the BLAS pool before numpy is imported: one thread, one process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "hexflow" / "cli.py").is_file():
        print(f"error: no hexflow sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import hexflow

    if Path(hexflow.__file__).resolve().parent != src / "hexflow":
        print(f"error: imported hexflow from {hexflow.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    import harness

    sys.exit(harness.main(sys.argv[1:]))
