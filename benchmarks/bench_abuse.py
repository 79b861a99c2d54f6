"""Adversarial storm benchmark: guard efficacy and guarded-path overhead.

Three measurements over the security fabric (``src/repro/security/``),
all on the mini fleet (1 drone, survey + storm honest tenants):

1. **Guard efficacy** — every attack at once (order storm, binder flood,
   MAVLink spam, frame replay) with the guards up, across three seeds.
   Every honest tenant must still complete with a clean invariant
   monitor; ``abuse.guarded.completed`` and ``abuse.guarded.violations``
   are exact-gated against ``baselines/abuse.jsonl``.
2. **Attack effectiveness** — the same storm with the guards *down*
   must demonstrably hurt the honest tenants (otherwise the guards are
   defending against nothing); ``abuse.attack_effective.ok`` is
   exact-gated.
3. **Guarded-path overhead** — a clean (no-attack) run with the fabric
   wired in vs the stock run.  The secure channel seals every MAVLink
   frame and every binder transaction crosses a token bucket, so this
   is the worst-case honest-path tax.  The gate counts work, not
   seconds: both runs must do the same honest work (control steps,
   binder and service transactions, MAVLink encodes, completed orders,
   sim time) and the guarded run must add exactly ``GUARD_WORK``
   (``abuse.overhead.ok``, exact-gated).  The min-of-N wall-time
   overhead is reported as ``abuse.overhead.pct``, information only: on
   ~0.25-s runs it swings by tens of percent on identical code.  With
   ``security_enabled`` off the fabric is never constructed at all —
   byte-identity is pinned separately by the golden-trace digest.

``ABUSE_SMOKE=1`` trims the overhead timing rounds for CI; the
efficacy sweep always runs all three seeds.
"""

import os
import time

from repro.analysis import render_table
from repro.android.services.base import SystemService
from repro.binder.driver import BinderProcess
from repro.flight.autopilot import Autopilot
from repro.loadgen import FleetScenario
from repro.loadgen.harness import run_scenario
from repro.loadgen.scenario import ATTACKS
from repro.mavlink.codec import MavlinkCodec
from repro.security.channel import SecureEndpoint
from repro.security.guards import RateGuard
from repro.sim.simulator import Simulator

SMOKE = os.environ.get("ABUSE_SMOKE") == "1"

SEEDS = (2025, 2026, 2027)
OVERHEAD_ROUNDS = 3 if SMOKE else 5

#: Calls counted in one clean run of each side.
WORK_CALLS = {
    "control_steps": (Autopilot, "control_step"),
    "binder_txns": (BinderProcess, "transact"),
    "service_txns": (SystemService, "handle_txn"),
    "mavlink_encodes": (MavlinkCodec, "encode"),
    "guard_checks": (RateGuard, "try_admit"),
    "seals": (SecureEndpoint, "seal"),
    "opens": (SecureEndpoint, "open"),
    "sim_events": (Simulator, "at"),
}
#: Honest work: equal on the stock and the guarded clean run.
HONEST_WORK = ("control_steps", "binder_txns", "service_txns",
               "mavlink_encodes", "completed", "sim_s")
#: What the fabric adds to the clean run at SEEDS[0], exactly.
GUARD_WORK = {"guard_checks": 5_845, "seals": 651, "opens": 649,
              "sim_events": 73}


def storm_scenario(seed: int, guarded: bool) -> FleetScenario:
    return FleetScenario(
        seed=seed, drones=1, tenants_per_drone=2,
        workload_mix=["survey", "storm"], max_duration_s=120.0,
        attack_mix=list(ATTACKS), security_enabled=guarded)


def clean_scenario(seed: int, guarded: bool) -> FleetScenario:
    return FleetScenario(
        seed=seed, drones=1, tenants_per_drone=2,
        workload_mix=["survey", "storm"], max_duration_s=120.0,
        security_enabled=guarded)


def run_storm(seed: int, guarded: bool) -> dict:
    start = time.perf_counter()
    result = run_scenario(storm_scenario(seed, guarded))
    wall_s = time.perf_counter() - start
    security = result.security or {}
    return {
        "seed": seed,
        "guarded": guarded,
        "wall_s": wall_s,
        "sim_s": result.duration_s,
        "honest": len(result.honest),
        "honest_completed": len(result.honest_completed),
        "honest_degraded": len(result.honest_degraded),
        "violations": len(result.violations),
        "invariant_checks": result.invariant_checks,
        "attack_injected": result.attack_injected,
        "channel_rejected": security.get("channel_rejected", 0),
        "demotions": security.get("demotions", 0),
        "storm_admitted": result.order_storm["admitted"],
        "storm_rate_limited": result.order_storm["rejected_rate"],
    }


def best_wall_s(seed: int, guarded: bool) -> float:
    """Min-of-N wall time for the clean run; min discards scheduler
    noise better than mean on shared CI runners."""
    walls = []
    for _ in range(OVERHEAD_ROUNDS):
        start = time.perf_counter()
        run_scenario(clean_scenario(seed, guarded))
        walls.append(time.perf_counter() - start)
    return min(walls)


def clean_work(seed: int, guarded: bool, count_calls) -> dict:
    """The work one clean run does: ``WORK_CALLS`` counts, completed
    orders and sim seconds."""
    with count_calls(WORK_CALLS) as counts:
        result = run_scenario(clean_scenario(seed, guarded))
    return dict(counts, completed=len(result.completed),
                sim_s=result.duration_s)


def test_abuse_storm(benchmark, record_result, metrics_registry,
                     export_metrics, count_calls):
    def sweep():
        guarded = [run_storm(seed, guarded=True) for seed in SEEDS]
        unguarded = run_storm(SEEDS[0], guarded=False)
        stock = best_wall_s(SEEDS[0], guarded=False)
        secured = best_wall_s(SEEDS[0], guarded=True)
        stock_work = clean_work(SEEDS[0], False, count_calls)
        secured_work = clean_work(SEEDS[0], True, count_calls)
        return guarded, unguarded, stock, secured, stock_work, secured_work

    (guarded, unguarded, stock_s, secured_s, stock_work,
     secured_work) = benchmark.pedantic(sweep, rounds=1, iterations=1)
    overhead_pct = 100.0 * (secured_s - stock_s) / stock_s
    honest_diff = {name: (stock_work[name], secured_work[name])
                   for name in HONEST_WORK
                   if stock_work[name] != secured_work[name]}
    added = {name: secured_work[name] - stock_work[name]
             for name in GUARD_WORK}
    overhead_ok = not honest_diff and added == GUARD_WORK

    rows = [(p["seed"], "on" if p["guarded"] else "off",
             f"{p['honest_completed']}/{p['honest']}", p["violations"],
             p["demotions"],
             f"{p['storm_rate_limited']}/{p['storm_admitted'] + p['storm_rate_limited']}",
             f"{p['channel_rejected']}/{p['attack_injected']}",
             round(p["sim_s"], 1), round(p["wall_s"], 2))
            for p in guarded + [unguarded]]
    record_result("abuse", render_table(
        ["Seed", "Guards", "Honest done", "Violations", "Demotions",
         "Storm limited", "Frames rejected", "Sim (s)", "Wall (s)"],
        rows,
        title=f"DoS storm ({', '.join(ATTACKS)}) vs the security fabric; "
              f"clean run: guards add {added['guard_checks']} checks, "
              f"{added['seals']} seals, {added['opens']} opens and "
              f"{added['sim_events']} events to "
              f"{'equal' if not honest_diff else 'UNEQUAL'} honest work; "
              f"wall overhead {overhead_pct:+.1f}% "
              f"(stock {stock_s:.2f}s, secured {secured_s:.2f}s, "
              f"min of {OVERHEAD_ROUNDS})"))

    for p in guarded:
        labels = {"seed": p["seed"], "attacks": len(ATTACKS)}
        metrics_registry.gauge("abuse.guarded.completed", **labels).set(
            p["honest_completed"])
        metrics_registry.gauge("abuse.guarded.violations", **labels).set(
            p["violations"])
        metrics_registry.gauge("abuse.guarded.demotions", **labels).set(
            p["demotions"])
        metrics_registry.gauge("abuse.guarded.wall_s", **labels).set(
            round(p["wall_s"], 3))
    metrics_registry.gauge("abuse.attack_effective.ok", seed=SEEDS[0]).set(
        int(unguarded["honest_degraded"] > 0))
    metrics_registry.gauge("abuse.overhead.ok", seed=SEEDS[0]).set(
        int(overhead_ok))
    metrics_registry.gauge("abuse.overhead.pct", seed=SEEDS[0]).set(
        round(overhead_pct, 2))
    export_metrics("abuse", metrics_registry)

    for p in guarded:
        label = f"abuse[seed={p['seed']}]"
        assert p["honest_completed"] == p["honest"], (
            f"{label}: only {p['honest_completed']}/{p['honest']} honest "
            f"tenants completed under the guarded storm")
        assert p["violations"] == 0, (
            f"{label}: {p['violations']} invariant violation(s)")
        assert p["invariant_checks"] > 0, f"{label}: monitor never ran"
        # a frame injected on the final tick can still be in flight
        # when the sim stops, so allow a couple undelivered.
        assert p["attack_injected"] - p["channel_rejected"] <= 2, (
            f"{label}: {p['attack_injected']} spoofed frames injected but "
            f"only {p['channel_rejected']} rejected at the channel")
        assert p["demotions"] >= 1, f"{label}: flood tenant never demoted"
        assert p["storm_rate_limited"] > p["storm_admitted"], (
            f"{label}: order storm mostly admitted "
            f"({p['storm_admitted']} vs {p['storm_rate_limited']})")
    assert unguarded["honest_degraded"] > 0, (
        "the unguarded storm hurt nobody — the guards defend against "
        "nothing measurable")
    assert not honest_diff, (
        f"the guards changed the honest work (stock, guarded): "
        f"{honest_diff}")
    assert added == GUARD_WORK, (
        f"the guards added {added}, expected {GUARD_WORK}")
