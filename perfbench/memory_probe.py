"""Peak resident memory of the package alone, on the first units of a workload.

``run.py`` starts this in a child process, so that neither the frozen copy nor
the benchmark's own inputs and timings count towards the figure::

    python3 perfbench/memory_probe.py WORKLOAD SEED UNITS

It generates the units one at a time from SEED, runs each on the package and
drops its output, then prints the process's peak resident set size in MiB.
Outputs are checked by the timed run, not here.

The peak is Linux's ``VmHWM``, not ``ru_maxrss``: a child keeps its parent's
``ru_maxrss`` across exec, so that figure would include the benchmark.
"""

from __future__ import annotations

import itertools
import sys

from run import load_package
from workloads import Tally, make_workload


def peak_rss_mib() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # the line reads "VmHWM: <n> kB"
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(name: str, seed: int, units: int) -> None:
    pkg = load_package()
    workload = make_workload(name)
    for unit in itertools.islice(workload.units(pkg, seed), units):
        workload.run_unit(pkg, unit, Tally())
    print(peak_rss_mib())


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
