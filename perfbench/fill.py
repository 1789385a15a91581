"""Fill a result cache with the paper's evaluations, for ``paper-warm``'s set-up.

Usage::

    python3 perfbench/fill.py CACHE_DIR SCALE BACKEND KERNEL...

Runs ``SuiteRunner(jobs=1).results`` for the kernels, in order, into
CACHE_DIR and exits.  ``paper-warm`` runs it as a child process and
waits for it, so the results it computes never enter the heap the
measured phase allocates from.
"""

from __future__ import annotations

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    cache_dir, scale, backend, *kernels = argv
    sys.path.insert(0, str(SRC))
    from repro.harness.runner import SuiteRunner

    runner = SuiteRunner(
        scale=float(scale), jobs=1, cache_dir=cache_dir, backend=backend
    )
    runner.results(kernels)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
