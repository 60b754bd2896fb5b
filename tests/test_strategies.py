"""Alternative control strategies (open question #4)."""

import pytest

from repro.controllers import (
    AimdConfig,
    AimdController,
    ProportionalConfig,
    ProportionalController,
)
from repro.core.estimator import BackendLatencyEstimator, EstimatorConfig
from repro.errors import ConfigError
from repro.lb.backend import Backend, BackendPool
from repro.units import MILLISECONDS


def make_pool(n=2):
    return BackendPool([Backend("s%d" % i) for i in range(n)])


def make_estimator():
    return BackendLatencyEstimator(EstimatorConfig(min_samples=1))


class TestProportionalController:
    def test_weights_inverse_to_latency(self):
        pool, estimator = make_pool(), make_estimator()
        controller = ProportionalController(
            pool, estimator, ProportionalConfig(min_interval=0)
        )
        estimator.observe("s0", 0, 300)
        estimator.observe("s1", 0, 100)
        update = controller.maybe_update(0)
        assert update is not None
        weights = pool.weights()
        # 1/300 : 1/100 = 1 : 3 over total 2.0.
        assert weights["s1"] == pytest.approx(3 * weights["s0"], rel=0.01)
        assert sum(weights.values()) == pytest.approx(2.0, rel=0.01)

    def test_power_sharpens_response(self):
        for power, expected_ratio in ((1.0, 2.0), (2.0, 4.0)):
            pool, estimator = make_pool(), make_estimator()
            controller = ProportionalController(
                pool, estimator, ProportionalConfig(power=power, min_interval=0)
            )
            estimator.observe("s0", 0, 200)
            estimator.observe("s1", 0, 100)
            controller.maybe_update(0)
            weights = pool.weights()
            assert weights["s1"] / weights["s0"] == pytest.approx(
                expected_ratio, rel=0.01
            )

    def test_requires_two_estimates(self):
        pool, estimator = make_pool(), make_estimator()
        controller = ProportionalController(pool, estimator)
        estimator.observe("s0", 0, 100)
        assert controller.maybe_update(0) is None

    def test_rate_limited(self):
        pool, estimator = make_pool(), make_estimator()
        controller = ProportionalController(
            pool, estimator, ProportionalConfig(min_interval=10 * MILLISECONDS)
        )
        estimator.observe("s0", 0, 300)
        estimator.observe("s1", 0, 100)
        assert controller.maybe_update(0) is not None
        assert controller.maybe_update(1 * MILLISECONDS) is None
        assert controller.maybe_update(11 * MILLISECONDS) is not None

    def test_floor_respected(self):
        pool, estimator = make_pool(), make_estimator()
        controller = ProportionalController(
            pool, estimator, ProportionalConfig(min_interval=0, weight_floor=0.1)
        )
        estimator.observe("s0", 0, 1_000_000)
        estimator.observe("s1", 0, 1)
        controller.maybe_update(0)
        assert pool.weights()["s0"] >= 0.1 * 2.0 - 1e-9

    def test_validation(self):
        with pytest.raises(ConfigError):
            ProportionalConfig(power=0).validate()
        with pytest.raises(ConfigError):
            ProportionalConfig(weight_floor=0.6).validate()


class TestAimdController:
    def test_slow_backend_decreased(self):
        pool, estimator = make_pool(), make_estimator()
        controller = AimdController(
            pool, estimator, AimdConfig(min_interval=0)
        )
        estimator.observe("s0", 0, 1000)  # > 1.3x best
        estimator.observe("s1", 0, 100)
        controller.maybe_update(0)
        weights = pool.weights()
        assert weights["s0"] < weights["s1"]
        assert sum(weights.values()) == pytest.approx(2.0)

    def test_converges_to_floor_under_persistent_slowness(self):
        pool, estimator = make_pool(), make_estimator()
        controller = AimdController(
            pool, estimator, AimdConfig(min_interval=0, weight_floor=0.05)
        )
        for step in range(1, 60):
            now = step * 10 * MILLISECONDS
            estimator.observe("s0", now, 1000)
            estimator.observe("s1", now, 100)
            controller.maybe_update(now)
        assert pool.weights()["s0"] == pytest.approx(0.05 * 2.0, rel=0.05)

    def test_recovers_additively_when_healthy(self):
        pool, estimator = make_pool(), make_estimator()
        controller = AimdController(pool, estimator, AimdConfig(min_interval=0))
        # Drive s0 down.
        for step in range(1, 20):
            now = step * 10 * MILLISECONDS
            estimator.observe("s0", now, 1000)
            estimator.observe("s1", now, 100)
            controller.maybe_update(now)
        low = pool.weights()["s0"]
        # Now equal latencies: s0 recovers.
        for step in range(20, 60):
            now = step * 10 * MILLISECONDS
            estimator.observe("s0", now, 100)
            estimator.observe("s1", now, 100)
            controller.maybe_update(now)
        assert pool.weights()["s0"] > low
        assert sum(pool.weights().values()) == pytest.approx(2.0)

    def test_no_update_without_estimates(self):
        pool, estimator = make_pool(), make_estimator()
        controller = AimdController(pool, estimator, AimdConfig(min_interval=0))
        assert controller.maybe_update(0) is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            AimdConfig(decrease=1.5).validate()
        with pytest.raises(ConfigError):
            AimdConfig(increase=0).validate()
        with pytest.raises(ConfigError):
            AimdConfig(threshold=0.5).validate()


class TestFeedbackIntegration:
    def test_strategy_selection_via_config(self, sim):
        from repro.core.feedback import FeedbackConfig, InbandFeedback
        from repro.lb.dataplane import LoadBalancer
        from repro.lb.policies import MaglevPolicy
        from repro.net.addr import Endpoint
        from repro.net.network import Network

        network = Network(sim)

        class Stub:
            name = "client"

            def on_packet(self, packet):
                pass

        network.add_node(Stub())
        pool = make_pool()
        lb = LoadBalancer(
            network, "lb", Endpoint("vip", 80), pool, MaglevPolicy(pool, 251)
        )
        feedback = InbandFeedback(lb, FeedbackConfig(strategy="proportional"))
        assert isinstance(feedback.controller, ProportionalController)

        lb2 = LoadBalancer(
            network, "lb2", Endpoint("vip2", 80), pool, MaglevPolicy(pool, 251)
        )
        feedback2 = InbandFeedback(lb2, FeedbackConfig(strategy="aimd"))
        assert isinstance(feedback2.controller, AimdController)

    def test_unknown_strategy_rejected(self, sim):
        from repro.core.feedback import FeedbackConfig, InbandFeedback
        from repro.errors import ConfigError
        from repro.lb.dataplane import LoadBalancer
        from repro.lb.policies import MaglevPolicy
        from repro.net.addr import Endpoint
        from repro.net.network import Network

        network = Network(sim)
        pool = make_pool()
        lb = LoadBalancer(
            network, "lb", Endpoint("vip", 80), pool, MaglevPolicy(pool, 251)
        )
        with pytest.raises(ConfigError):
            InbandFeedback(lb, FeedbackConfig(strategy="nonsense"))

