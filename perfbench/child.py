"""Entry points run in a fresh interpreter.

    python3 perfbench/child.py setup WORKLOAD
        import freecycle (and freecycle.cli for the cli workload), make the
        workload's warm-up call, and print the import and set-up seconds;
    python3 perfbench/child.py census-round SEED INDEX TRACED
        run one exact-census round and print its record.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import bench


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2 and argv[1] in bench.WORKLOADS:
        module = importlib.import_module(bench.WORKLOADS[argv[1]])
        start = time.perf_counter()
        fc = bench.import_freecycle()
        if argv[1] == "cli":
            import freecycle.cli  # noqa: F401
        imported = time.perf_counter()
        module.warm_up(fc)
        done = time.perf_counter()
        print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
        return 0
    if argv[:1] == ["census-round"] and len(argv) == 4:
        import wl_census

        print(json.dumps(wl_census.run_round(int(argv[1]), int(argv[2]), argv[3] == "1")))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
