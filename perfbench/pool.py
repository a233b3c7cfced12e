"""One replay of stream 0 under the BLAS thread pool of its environment.

The traced run (``run.py --trace 1``) starts this script in a child
process with ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` unset, so
OpenBLAS starts its default pool of one thread per CPU while the parent
stays pinned to one thread.  The last line of standard output is one
JSON object: the drain's wall and CPU time (raw and host-speed
normalized), the arrivals, the failed decisions and the timeline digest.

    python3 perfbench/pool.py WORKLOAD SEED SCRATCH_DIR SHAPE_JSON
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list) -> int:
    import gen
    import run

    workload, seed, scratch, shape = argv
    bench = run.Bench(workload, int(seed), Path(scratch),
                      gen.Shape(**json.loads(shape)))
    result = bench.round(0)
    print(json.dumps({
        "drain_s": result.drain_s,
        "drain_cpu_s": result.drain_cpu_s,
        "norm_drain_s": result.norm_drain_s,
        "arrivals": result.arrivals,
        "failed": result.failed,
        "digest": result.digest,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
