"""Time a cold set-up: import vcsp and parse one prepared workload.

Usage: python3 perfbench/setup_probe.py SRC_DIR WORK_DIR

Prints the seconds from just before ``import vcsp`` to the end of parsing
every instance and ops file listed in WORK_DIR/manifest.json, then the
median seconds of the calibration loop (``calib.py``) timed right after,
which scales the first to the reference speed.  Run in a fresh interpreter
so the import is really paid.
"""

import json
import os
import statistics
import sys
import time

CALIBRATION_RUNS = 9


def main():
    src_dir, work_dir = sys.argv[1:3]
    with open(os.path.join(work_dir, "manifest.json"), encoding="utf-8") as fh:
        entries = json.load(fh)["instances"]
    paths = [(os.path.abspath(os.path.join(work_dir, e["instance"])),
              os.path.abspath(os.path.join(work_dir, e["ops"])))
             for e in entries]
    sys.path.insert(0, src_dir)
    start = time.perf_counter()
    from vcsp.io_formats import parse_instance, parse_ops

    for inst_path, ops_path in paths:
        parse_ops(ops_path, parse_instance(inst_path).domains)
    wall_s = time.perf_counter() - start
    import calib  # after the timed region: it imports fractions itself

    loop_s = statistics.median(calib.measure()
                               for _ in range(CALIBRATION_RUNS))
    print(repr(wall_s), repr(loop_s))


if __name__ == "__main__":
    main()
