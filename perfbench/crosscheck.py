"""Oracle cross-check: matrix oracle against the catalog rule, in one process.

For every case in workloads.ORACLE_CASES and every self-twisted-dual
fundamental with a matrix model, print one JSON line with the oracle's
decision, the catalog's, the seconds the decision took and its window
[start, end] on the monotonic clock, against which the benchmark's
speed meter scales it (see yardstick.py).

    python perfbench/crosscheck.py SEED [SPANS.json]

With a spans file the run is traced (see tracer.py).
"""

from __future__ import annotations

import json
import sys
import time

from cli_job import report_peak
from workloads import ORACLE_CASES


def main(argv):
    seed = int(argv[0])
    tracer = None
    if len(argv) > 1:
        import tracer as tracing
        tracer = tracing.install("crosscheck")
    from eqkr import oracle
    from eqkr.groups import build_root_data
    from eqkr.realstruct import Involution
    try:
        for group, kind in ORACLE_CASES:
            rd = build_root_data(group)
            inv = Involution(rd, kind)
            for w in rd.fundamental_weights():
                if inv.twisted_dual_weight(w) != w:
                    continue
                t0 = time.perf_counter()
                rep = oracle.rep_for_weight(rd, w)
                if rep is None:
                    continue
                got, _ = oracle.matrix_oracle_type(rep, kind, seed=seed)
                t1 = time.perf_counter()
                print(json.dumps({"group": group, "involution": kind, "weight": list(w),
                                  "oracle": got, "catalog": inv.catalog_type(w),
                                  "seconds": t1 - t0, "window": [t0, t1]}), flush=True)
    finally:
        if tracer is not None:
            tracer.dump(argv[1])
    report_peak()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
