"""The city scenario end to end: clean invariants and determinism."""

import pytest

from repro.cloud.controlplane import ControlPlaneConfigError
from repro.loadgen import CityHarness, CityScenario, run_city
from repro.loadgen.city import CITY_HOME
from repro.loadgen.scenario import ScenarioError

# 8 drones so the whitelist mix yields two "full"-capable drones: the
# every-8th orders require class "full", and a migration excludes its
# source drone, so a single full-capable drone could never re-place.
SMALL = dict(seed=42, shards=2, drones=8, orders=24, migration_every=8,
             capacity=3, max_pending=12)


def small_scenario(**overrides):
    params = dict(SMALL)
    params.update(overrides)
    return CityScenario(**params)


class TestScenario:
    def test_json_round_trip(self):
        scenario = small_scenario()
        assert CityScenario.from_json(scenario.to_json()) == scenario

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError):
            CityScenario.from_dict({"seed": 1, "warp_drive": True})

    @pytest.mark.parametrize("bad", [
        {"shards": 0}, {"drones": 0}, {"orders": 0},
        {"arrival_rate_per_s": 0.0}, {"placer": "oracle"},
        {"drone_whitelist_mix": ["root"]},
        {"max_charge_range": [6.0, 2.0]},
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ScenarioError):
            small_scenario(**bad)


class TestCityRun:
    def test_small_city_completes_clean(self):
        result = run_city(small_scenario())
        result.assert_clean()
        assert not result.deadline_hit
        assert result.invariant_checks > 0
        assert result.orders_submitted == 24
        assert result.orders_completed + result.orders_failed \
            + result.orders_rejected == 24
        assert result.orders_completed >= 20
        assert result.flights >= 1
        assert result.migrations_completed >= 1  # the VDR hand-off ran

    def test_same_seed_same_digest(self):
        first = run_city(small_scenario())
        second = run_city(small_scenario())
        assert first.digest == second.digest
        assert first.orders_completed == second.orders_completed
        assert first.placement_mean_m == second.placement_mean_m

    def test_run_ends_when_the_last_order_settles(self):
        """The last of seed 3's 12 orders settles at 82 s.  A restart
        scripted for 3000 s never fires and does not stretch the run; the
        drained run used to report 3015 s with it and 85 s without."""
        without = run_city(CityScenario(seed=3, orders=12, restart_at_s=0))
        late = run_city(CityScenario(seed=3, orders=12, restart_at_s=3000))
        assert without.duration_s == late.duration_s == 82.0
        assert late.digest == without.digest   # no drone_restart journaled

    def test_different_seed_different_digest(self):
        assert run_city(small_scenario()).digest \
            != run_city(small_scenario(seed=7)).digest

    def test_result_serializes(self):
        result = run_city(small_scenario())
        payload = result.to_dict()
        assert payload["scenario"]["seed"] == 42
        assert payload["digest"] == result.digest
        assert isinstance(result.to_json(), str)

    def test_firstfit_places_no_closer_than_binpack(self):
        binpack = run_city(small_scenario())
        firstfit = run_city(small_scenario(placer="firstfit"))
        firstfit.assert_clean()
        assert binpack.placement_mean_m <= firstfit.placement_mean_m + 1e-9


class TestOrderIntake:
    def test_unknown_whitelist_class_takes_no_admission_slot(self):
        plane = CityHarness(CityScenario(seed=42)).plane
        shard = plane.shard_for("user0000")
        pending = shard.admission.pending
        orders = dict(shard.portal.orders)
        waypoint = {"latitude": CITY_HOME.latitude,
                    "longitude": CITY_HOME.longitude, "altitude": 30.0}
        # Small enough that every drone could host it, but for its class.
        with pytest.raises(ControlPlaneConfigError):
            plane.submit_order("user0000", [waypoint], 500.0, 500.0,
                               whitelist_class="bogus", max_charge=4.0,
                               max_duration_s=60.0)
        assert shard.admission.pending == pending
        assert shard.portal.orders == orders
        assert plane.records == {}
