"""One workload in one fresh interpreter: a closed loop with one client.

Started by run.py from the root of a checkout. It pins numpy's BLAS to
one thread, imports boxapprox.cli and prints ``ready``; run.py times
set-up up to that line. ``loop.main`` then runs the plan's job list
through ``boxapprox.cli.main(argv)`` pass after pass, one job at a time,
until its time budget is spent, and prints one JSON object of raw
timings, checks and trace totals as the last line of stdout.
"""

import os
import sys

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, "src")
    import boxapprox.cli

    print("ready", flush=True)
    if sys.argv[1:] == ["--probe"]:
        sys.exit(0)
    from loop import main

    sys.exit(main(boxapprox.cli))
