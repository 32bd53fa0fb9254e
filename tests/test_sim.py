import json

import pytest

from conftest import (
    always_accepting_dra,
    pickup_delivery_dra,
    pickup_delivery_mdp,
    single_policy,
)
from cyclesynth import acpc, sim
from cyclesynth.acpc import CycleProblem
from cyclesynth.mdp import StationaryPolicy
from cyclesynth.product import build_product
from cyclesynth.synth import synthesize


class TestSimulate:
    def test_deterministic_chain_counts(self, toy_a):
        # 10 stages on the 2-cycle: 5 arrivals back into {s0}, plus the
        # initial cycle index of 1
        report = sim.simulate(toy_a, single_policy(toy_a), 10, seed=0,
                              pi_states={0})
        assert report.stages == 10
        assert report.total_cost == 10.0
        assert report.cycles == 6
        assert report.empirical_acpc == pytest.approx(10.0 / 6.0)

    def test_seed_reproducibility(self, toy_c):
        a = sim.simulate(toy_c, single_policy(toy_c), 5000, seed=42, pi_states={0})
        b = sim.simulate(toy_c, single_policy(toy_c), 5000, seed=42, pi_states={0})
        assert a == b
        c = sim.simulate(toy_c, single_policy(toy_c), 5000, seed=43, pi_states={0})
        assert c.total_cost != a.total_cost or c.cycles != a.cycles

    def test_empirical_matches_analytic(self, toy_c):
        problem = CycleProblem(mdp=toy_c, pi_states=frozenset({0}))
        lam = acpc.acpc_evaluate(problem, single_policy(toy_c)).lam
        report = sim.simulate(toy_c, single_policy(toy_c), 200_000, seed=7,
                              pi_states={0})
        assert report.empirical_acpc == pytest.approx(lam, rel=0.01)

    def test_cycle_costs_partition_total(self, toy_c):
        report = sim.simulate(toy_c, single_policy(toy_c), 1000, seed=1,
                              pi_states={0}, collect_cycle_costs=True)
        assert len(report.cycle_costs) == report.cycles - 1
        assert sum(report.cycle_costs) <= report.total_cost

    def test_report_json_shape(self, toy_a):
        report = sim.simulate(toy_a, single_policy(toy_a), 10, seed=0, pi_states={0})
        data = report.to_json_dict()
        assert data == {
            "stages": 10, "totalCost": 10.0, "cycles": 6,
            "empiricalAcpc": 10.0 / 6.0, "seed": 0,
            "rng": "python-random-mt19937",
        }
        json.dumps(data)  # serializable


class TestSimulateProduct:
    def _solved(self):
        mdp = pickup_delivery_mdp()
        dra = pickup_delivery_dra()
        result = synthesize(mdp, dra, "pickup")
        return mdp, dra, result

    def test_projection_agrees_exactly(self):
        mdp, _dra, result = self._solved()
        product = result.product
        report_p = sim.simulate_product(product, result.stitched_policy,
                                        20_000, seed=5)
        controller = result.executable()
        report_e = sim.simulate_executable(mdp, controller, 20_000, seed=5,
                                           pi_states=mdp.pi_states("pickup"))
        assert report_p.total_cost == report_e.total_cost
        assert report_p.cycles == report_e.cycles

    def test_executable_builds_each_sampler_once(self, monkeypatch):
        mdp, _dra, result = self._solved()
        rows = []
        cum_row = sim._cum_row

        def counting(row):
            rows.append(row.tobytes())
            return cum_row(row)

        monkeypatch.setattr(sim, "_cum_row", counting)
        sim.simulate_executable(mdp, result.executable(), 5_000, seed=5,
                                pi_states=mdp.pi_states("pickup"))
        assert rows
        assert len(rows) == len(set(rows))

    def test_acceptance_evidence(self):
        _mdp, _dra, result = self._solved()
        report = sim.simulate_product(result.product, result.stitched_policy,
                                      50_000, seed=11,
                                      amec_states=result.winning_states())
        pair = report.pair_counters[0]
        assert pair.count_L == 0  # never trapped
        assert pair.count_K > 0   # picked up over and over
        assert pair.count_L_after_entry == 0
        assert report.amec_entry_stage == 0  # the initial state is inside

    def test_empirical_acpc_near_lambda(self):
        _mdp, _dra, result = self._solved()
        report = sim.simulate_product(result.product, result.stitched_policy,
                                      500_000, seed=3)
        assert report.empirical_acpc == pytest.approx(result.optimal_cost, rel=0.01)

    def test_trivial_product_matches_plain_simulation(self, toy_b):
        product = build_product(toy_b, always_accepting_dra(), "pi")
        mu = StationaryPolicy({0: 1, 1: 0})
        plain = sim.simulate(toy_b, mu, 1000, seed=9, pi_states={0})
        lifted = sim.simulate_product(product, mu, 1000, seed=9)
        assert plain.total_cost == lifted.total_cost
        assert plain.cycles == lifted.cycles
