"""Record ``reference/<workload>.csv``: the energy table of seed 0.

    python3 bench/record_reference.py [WORKLOAD ...]

The correctness gate compares every seed-0 run against these tables.
Record them again only with a change that is meant to move the computed
state by more than the gate's tolerance, and say why in CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys

from run import OUT, load_fenep, write_config
from workloads import REFERENCE_DIR, WORKLOADS


def main(names) -> int:
    fx = load_fenep()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        cfg = write_config(WORKLOADS[name], 0, f"{name}-reference")
        code = fx.cli.main(["run", str(cfg)])
        if code != 0:
            return code
        shutil.copyfile(OUT / f"{name}-reference" / "energy.csv",
                        REFERENCE_DIR / f"{name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
