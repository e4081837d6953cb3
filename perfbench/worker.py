"""One benchmark repetition, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace SPANS.npz | --host-speed]

Builds the workload ``Workload.setups`` times (each build timed; the
last one is run), runs it once, and prints one JSON line: setup times,
run wall time, peak RSS and the run's outcome.  With ``--host-speed`` a
:class:`hostspeed.HostSpeed` sampler runs from before the first build to
the end of the run: the times printed are then the program's own (the
reference chunks taken out) and the line carries the chunks run during
the builds and during the run, from which :mod:`run` works out the host's
speed in each.  With ``--trace`` every layer hook of :mod:`tracer` is
installed first, the spans are written to the given file, and the line
also carries the per-layer call counts, self times and counters.
:mod:`run` starts this script and checks what it prints.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS, setup, summarize  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--trace", type=Path, default=None, metavar="SPANS.npz")
    group.add_argument("--host-speed", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import numpy

    # Import the program before any timing: set-up time measures building
    # the system, not loading its modules.
    import repro.runtime  # noqa: F401
    import repro.scenarios  # noqa: F401

    tracer = unhooked = None
    if args.trace is not None:
        from tracer import Tracer, install

        tracer = Tracer()
        unhooked = install(tracer)

    clock = HostSpeed()
    if args.host_speed:
        clock.start()

    setup_s = []
    setup_chunks = [0, 0.0]
    system = None
    for _ in range(workload.setups):
        system = None
        gc.collect()
        t0 = clock.mark()
        system = setup(workload, args.seed)
        build_s, chunks, chunk_s = clock.window(t0)
        setup_s.append(build_s)
        setup_chunks[0] += chunks
        setup_chunks[1] += chunk_s

    gc.collect()
    first_run_span = tracer.mark() if tracer is not None else 0
    t0 = clock.mark()
    result = system.run()
    wall_s, *run_chunks = clock.window(t0)
    if args.host_speed:
        clock.stop()

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": summarize(workload, system, result),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.host_speed:
        # Chunks (count, seconds) run during the builds and during the run.
        report["setup_chunks"] = setup_chunks
        report["run_chunks"] = run_chunks
    if tracer is not None:
        report["layers"] = tracer.layer_times(first_run_span)
        report["counters"] = dict(tracer.counters)
        report["roots"] = tracer.root_check(first_run_span)
        report["unhooked"] = unhooked
        tracer.save(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
