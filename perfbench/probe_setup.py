"""Set-up probe: import the package and prepare one workload, then report.

Usage: python3 perfbench/probe_setup.py <workload> <seed> <workdir>

Prints ``ready`` once the imports (sparsebandit, numpy, scipy) and the
workload's configs and instances are done; the parent times the interval
from spawning this process to that line as one ``setup_s`` sample.
"""

import sys
from pathlib import Path

import env


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    env.configure()
    import workloads

    workloads.prepare(workloads.WORKLOADS[workload], seed, workdir)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
