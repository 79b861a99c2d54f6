"""One workload run in a fresh process; prints one JSON line.

``run.py`` starts this once per measured run, so that every run pays
the first ``repro`` import (part of ``setup_s``) and has its own peak
RSS.  The process also times a fixed pure-Python reference loop before
the import, before the run and after it, and reports ``norm``: the
factor that scales its wall times to a host on which the loop takes
:data:`REF_NOMINAL_S`.  Modes:

- ``setup``: import and build only (warms the bytecode cache);
- ``plain``: build and run untraced;
- ``traced``: install the layer wrappers, then build and run, and write
  the spans to ``--spans`` when given.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (benchmark module; imports no repro)

#: Reference loop size, and its time on the 2-core KVM Xeon host the
#: benchmark was written on (CPython 3.11) when that host was quiet.
REF_LOOPS = 700_000
REF_NOMINAL_S = 0.1


def reference_s() -> float:
    """Time the reference loop: dict updates and integer arithmetic."""
    start = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(REF_LOOPS):
        key = i & 511
        table[key] = table.get(key, 0) + 1
        total += (i * i) % 7
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        default="plain")
    parser.add_argument("--spans", default=None,
                        help="traced mode: write spans here (.jsonl.gz)")
    args = parser.parse_args(argv)

    spec = workloads.workload_spec(args.workload)
    tracer = None
    refs = [reference_s()]
    t_import = time.perf_counter()
    if args.mode == "traced":
        import layers

        tracer = layers.Tracer(f"{args.workload}:{args.seed}").install()
    run = workloads.Run(spec, args.seed)
    t_build = time.perf_counter()
    run.build()
    t_built = time.perf_counter()
    report = {"workload": args.workload, "seed": args.seed,
              "mode": args.mode, "setup_s": t_built - t_import}
    refs.append(reference_s())
    if args.mode != "setup":
        events_at_start = tracer.counts["sim.events"] if tracer else 0
        t_run = time.perf_counter()
        run.run()
        t_end = time.perf_counter()
        refs.append(reference_s())
        report.update(run.outcome())
        report.update(run_s=t_end - t_run,
                      window_s=(t_built - t_build) + (t_end - t_run),
                      sim_s=run.sim_s)
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.summary()
            # Events scheduled while building belong to set-up.
            report["layers"]["counts"]["sim.events"] -= events_at_start
            if args.spans:
                tracer.write_spans(args.spans)
    report["ref_s"] = refs
    report["norm"] = REF_NOMINAL_S / statistics.median(refs)
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
