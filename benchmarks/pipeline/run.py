"""Run one workload of the pipeline benchmark from a checkout's root:

    python3 benchmarks/pipeline/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

The library is imported from ``src/`` beside this directory.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.pipeline.cli import main
    sys.exit(main())
