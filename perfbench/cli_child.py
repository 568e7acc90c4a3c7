"""A traced ``pqzeta`` call: runs ``cli.run`` in this process, as the
``pqzeta`` script does, and reports its wall time (argument parsing, the
subcommand's work and emitting the report) as the last line of stderr,
after the mark ``TIMING_MARK`` of ``wl_cli_batch``.

Usage: python3 cli_child.py <pqzeta arguments>   (with PYTHONPATH=src)
"""

import sys
import time

from pqzeta import cli

t0 = time.perf_counter()
code = cli.run(sys.argv[1:])
sys.stdout.flush()
print(f'pqzeta-bench-timing {{"run_s": {time.perf_counter() - t0!r}}}', file=sys.stderr)
sys.exit(code)
