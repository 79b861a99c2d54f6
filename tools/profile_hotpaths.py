#!/usr/bin/env python
"""Profile the engine's hot paths and report where the time goes.

``make profile`` runs this.  It drives three representative workloads
under cProfile — the figure-10 device-service storm (the binder/service
hot loop), a small fleet soak (the full simulator event loop), and the
scalar flight integrator — then renders:

* a **per-subsystem table**: own-time (tottime) summed over every
  function in each top-level ``repro.*`` package, so "binder is 31% of
  the storm" is one glance, not a pstats spelunk;
* the **top functions** by own time, with call counts;
* ``profiles/<workload>.pstats`` — the raw stats, loadable with
  ``python -m pstats`` or snakeviz;
* ``profiles/<workload>.folded`` — caller;callee own-time pairs in the
  collapsed-stack format flamegraph.pl and speedscope accept, so a
  flamegraph is one ``flamegraph.pl profiles/storm.folded > storm.svg``
  away.

The per-PR optimization workflow (see docs/PERFORMANCE.md): profile,
attack the top row, prove behavior-neutrality with the golden trace and
the recorded fixtures, measure end to end with ``perfbench/run.py``, and
record the before/after in the optimization ledger.

Usage::

    PYTHONPATH=src python tools/profile_hotpaths.py [--workload all]
        [--out profiles] [--calls 20000] [--top 15]
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import sys
from collections import defaultdict

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))


# ---------------------------------------------------------------- workloads
# Each workload builds its rig un-profiled and returns the hot loop as a
# zero-arg closure, so the stats show the engine, not imports and setup.
def workload_storm(calls: int):
    """The figure-10 service storm: app -> binder -> service -> device."""
    import repro.obs as obs
    from repro.loadgen import FleetScenario, FleetHarness
    from repro.loadgen.workloads import STORM_CALLS

    obs.enable()
    harness = FleetHarness(FleetScenario(
        seed=42, drones=1, tenants_per_drone=1, workload_mix=["storm"]))
    slot = harness.slots[0]
    slot.node.vdc.waypoint_reached(slot.tenants[0])
    app = next(iter(
        slot.node.vdc.drones[slot.tenants[0]].env.apps.values()))
    storm = [(svc, code, dict(data)) for svc, code, data in STORM_CALLS]

    def run():
        try:
            for i in range(calls):
                svc, code, data = storm[i % 4]
                app.call_service(svc, code, data)
        finally:
            obs.disable()

    return run


def workload_soak(calls: int):
    """A small fleet soak: the whole simulator, missions included."""
    from repro.loadgen import FleetScenario
    from repro.loadgen.harness import run_scenario

    scenario = FleetScenario(seed=42, drones=1, tenants_per_drone=2)
    return lambda: run_scenario(scenario)


def workload_flight(calls: int):
    """The scalar flight integrator, the per-drone physics floor."""
    from repro.flight.physics import PARAMS, QuadcopterPhysics

    vehicle = QuadcopterPhysics()
    hover = PARAMS.hover_throttle()
    command = (hover + 0.01, hover, hover, hover)

    def run():
        for _ in range(calls):
            vehicle.step(0.0025, command)

    return run


WORKLOADS = {
    "storm": workload_storm,
    "soak": workload_soak,
    "flight": workload_flight,
}


# ---------------------------------------------------------------- reporting
def subsystem_of(filename: str) -> str:
    """Map a stats filename onto its top-level repro package."""
    marker = "repro/"
    if marker not in filename.replace("\\", "/"):
        return "(stdlib/other)"
    tail = filename.replace("\\", "/").split(marker, 1)[1]
    part = tail.split("/", 1)
    return f"repro.{part[0].removesuffix('.py')}"


def render_report(stats: pstats.Stats, top: int) -> str:
    by_subsystem = defaultdict(lambda: [0.0, 0.0, 0])  # tottime, cum, calls
    rows = []
    total = 0.0
    for (filename, lineno, funcname), (cc, nc, tottime, cumtime, callers) \
            in stats.stats.items():
        subsystem = subsystem_of(filename)
        agg = by_subsystem[subsystem]
        agg[0] += tottime
        agg[1] = max(agg[1], cumtime)
        agg[2] += nc
        total += tottime
        rows.append((tottime, nc, cumtime,
                     f"{subsystem}:{funcname}" if subsystem.startswith(
                         "repro") else funcname))
    lines = ["", "per-subsystem own time:"]
    lines.append(f"  {'subsystem':28} {'tottime':>9} {'share':>7} "
                 f"{'calls':>10}")
    for name, (tottime, _cum, calls) in sorted(
            by_subsystem.items(), key=lambda kv: -kv[1][0]):
        share = 100.0 * tottime / total if total else 0.0
        lines.append(f"  {name:28} {tottime:9.3f} {share:6.1f}% {calls:>10}")
    lines.append("")
    lines.append(f"top {top} functions by own time:")
    lines.append(f"  {'tottime':>9} {'calls':>10}  function")
    for tottime, nc, cumtime, label in sorted(rows, reverse=True)[:top]:
        lines.append(f"  {tottime:9.3f} {nc:>10}  {label}")
    return "\n".join(lines)


def write_folded(stats: pstats.Stats, path: pathlib.Path) -> int:
    """Collapsed caller;callee stacks weighted by callee own time.

    cProfile keeps a caller->callee edge graph rather than full stacks,
    so the folded output is two frames deep — enough for flamegraph.pl
    or speedscope to show which parents feed each hot function.
    """
    lines = []
    for (filename, lineno, funcname), (cc, nc, tottime, cumtime, callers) \
            in stats.stats.items():
        if tottime <= 0.0:
            continue
        callee = f"{subsystem_of(filename)}`{funcname}"
        weight = max(1, int(tottime * 1_000_000))  # microseconds
        if not callers:
            lines.append(f"{callee} {weight}")
            continue
        caller_total = sum(edge[3] for edge in callers.values()) or 1.0
        for (cfile, _cline, cfunc), edge in callers.items():
            share = edge[3] / caller_total
            frame = f"{subsystem_of(cfile)}`{cfunc};{callee}"
            lines.append(f"{frame} {max(1, int(weight * share))}")
    path.write_text("\n".join(lines) + "\n")
    return len(lines)


def profile_workload(name: str, calls: int, out_dir: pathlib.Path,
                     top: int) -> None:
    run = WORKLOADS[name](calls)
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    stats = pstats.Stats(profiler)
    out_dir.mkdir(parents=True, exist_ok=True)
    pstats_path = out_dir / f"{name}.pstats"
    stats.dump_stats(str(pstats_path))
    folded_path = out_dir / f"{name}.folded"
    folded = write_folded(stats, folded_path)
    print(f"== workload: {name} ({calls} iterations)")
    print(render_report(stats, top))
    print(f"\n  raw stats:     {pstats_path}")
    print(f"  folded stacks: {folded_path} ({folded} frames)\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the engine hot paths")
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--calls", type=int, default=20_000,
                        help="storm/flight iteration count (soak ignores it)")
    parser.add_argument("--out", default="profiles",
                        help="output directory for .pstats/.folded files")
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(args.out)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        profile_workload(name, args.calls, out_dir, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
