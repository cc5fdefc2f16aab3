"""Set-up time of a fresh interpreter: python3 probe.py T0

T0 is a ``time.perf_counter()`` reading taken by the parent just before it
started this interpreter; the clock is system-wide on Linux.  Prints the
seconds from T0 until ``epsitau.cli`` is imported and its parser is built.
"""

import sys
import time

import epsitau.cli

epsitau.cli.build_parser()
print(time.perf_counter() - float(sys.argv[1]))
