"""Print the CLOCK_MONOTONIC time (ns) at which one auesim CLI invocation reaches its first trial.

bench/run.py starts this script in a fresh interpreter with the CLI arguments
of a workload and subtracts the time at which it started the process.  The
CLI's call into the sweep runner is replaced by a stop, so the process does
exactly the imports, argument parsing and config build of a real run.
"""

import sys
import time
from pathlib import Path


class FirstTrial(Exception):
    pass


def _stop(*args, **kwargs):
    raise FirstTrial(time.monotonic_ns())


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import auesim.cli

    auesim.cli.run_sweep = _stop
    try:
        code = auesim.cli.main(sys.argv[1:])
    except FirstTrial as reached:
        print(reached.args[0])
        sys.exit(0)
    sys.exit(f"the CLI returned {code} before reaching the sweep runner")
