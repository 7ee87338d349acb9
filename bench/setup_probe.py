"""Seconds, inside a fresh interpreter, until the program's entry point is imported.

    python3 bench/setup_probe.py SRC_DIR MODULE

Interpreter and ``site`` start-up happen before this file runs and are not
counted; the clock covers putting SRC_DIR on the path and importing MODULE.
"""

import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
__import__(sys.argv[2])
print(perf_counter() - start)
