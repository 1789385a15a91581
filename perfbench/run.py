"""Run one benchmark workload and print its result as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 14 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics and writes the run's spans to
``perfbench/_out/trace-<workload>-<seed>.jsonl``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import signal
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no package at {SRC / 'repro'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    # A stop request unwinds like an error, so a child process that is
    # running (paper-warm's cache fill) is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    plan = reference.load_plan()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    recorder = spans.Recorder(tracing=bool(args.trace))
    try:
        with spans.install(recorder):
            result = workloads.run(
                workloads.WORKLOADS[args.workload], plan, args.seed,
                args.seconds, recorder, workdir,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        recorder.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
