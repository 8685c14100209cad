"""Import qborel and build the shared objects one workload reads, then exit.

    python3 perfbench/setup_probe.py A2 5 borel subalgebra twist associator

The benchmark times this process from spawn to exit as the workload's
set-up.  It prints the counts of what it built as one JSON object, which
the benchmark checks.
"""

from __future__ import annotations

import json
import sys


def main(argv):
    import qborel

    cartan_type, n, stages = argv[0], int(argv[1]), argv[2:]
    hopf = qborel.build_borel(cartan_type, n)
    counts = {"dim_borel": hopf.algebra.dimension}
    if "subalgebra" in stages:
        counts["dim_subalgebra"] = qborel.build_subalgebra(hopf).count
    if "twist" in stages:
        qborel.build_twist(hopf)
    if "associator" in stages:
        counts["term_count"] = qborel.closed_form_associator(hopf).term_count
    if "double" in stages:
        dbl = qborel.build_double(hopf)
        counts["dimension"] = dbl.dimension
        if "generators" in stages:
            counts["generators_valid"] = qborel.identify_generators(dbl)["residual"] is None
    print(json.dumps(counts, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
