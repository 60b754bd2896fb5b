"""The controller registry: names, factories, feedback-plane dispatch."""

import pytest

import repro.controllers as controllers
from repro.controllers import (
    Controller,
    GradientDescentController,
    KnapsackController,
    MorpheusController,
)
from repro.controllers.base import ShiftEvent
from repro.controllers.registry import ControllerSpec, get_spec, register
from repro.core.controller import AlphaShiftController
from repro.core.estimator import BackendLatencyEstimator, EstimatorConfig
from repro.core.feedback import FeedbackConfig
from repro.errors import ConfigError
from repro.lb.backend import Backend, BackendPool


def make_pool(n=3):
    return BackendPool([Backend("s%d" % i) for i in range(n)])


def make_estimator():
    return BackendLatencyEstimator(EstimatorConfig(min_samples=1))


class TestRegistry:
    def test_full_roster_registered(self):
        assert controllers.available() == [
            "aimd",
            "alpha",
            "gradient",
            "knapsack",
            "morpheus",
            "proportional",
        ]

    def test_specs_carry_provenance(self):
        for spec in controllers.specs():
            assert isinstance(spec, ControllerSpec)
            assert spec.summary, "%s needs a summary" % spec.name
            assert spec.provenance, "%s needs provenance" % spec.name

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigError) as excinfo:
            get_spec("nonsense")
        message = str(excinfo.value)
        assert "nonsense" in message
        for name in controllers.available():
            assert name in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError):
            register("alpha")(lambda pool, estimator, config: None)

    def test_create_builds_each_law(self):
        expected = {
            "alpha": AlphaShiftController,
            "knapsack": KnapsackController,
            "gradient": GradientDescentController,
            "morpheus": MorpheusController,
        }
        for name, cls in expected.items():
            controller = controllers.create(
                name, make_pool(), make_estimator(), FeedbackConfig()
            )
            assert isinstance(controller, cls)

    def test_every_law_satisfies_the_protocol(self):
        for name in controllers.available():
            controller = controllers.create(
                name, make_pool(), make_estimator(), FeedbackConfig()
            )
            assert isinstance(controller, Controller), name
            assert controller.updates == []
            assert controller.stale_holds == 0
            assert controller.maybe_update(0) is None  # no estimates yet
            estimator = controller.estimator
            for step in range(1, 21):
                now = step * 1_000_000
                estimator.observe("s0", now, 2_000_000)
                estimator.observe("s1", now, 100_000)
                estimator.observe("s2", now, 150_000)
                controller.maybe_update(now)
            assert controller.updates, name
            for update in controller.updates:
                assert isinstance(update, ShiftEvent), name


class TestFeedbackDispatch:
    def build_feedback(self, sim, strategy):
        from repro.core.feedback import InbandFeedback
        from repro.lb.dataplane import LoadBalancer
        from repro.lb.policies import MaglevPolicy
        from repro.net.addr import Endpoint
        from repro.net.network import Network

        network = Network(sim)
        pool = make_pool()
        lb = LoadBalancer(
            network, "lb", Endpoint("vip", 80), pool, MaglevPolicy(pool, 251)
        )
        return InbandFeedback(lb, FeedbackConfig(strategy=strategy))

    def test_new_laws_constructible_from_config(self, sim):
        for strategy, cls in (
            ("knapsack", KnapsackController),
            ("gradient", GradientDescentController),
            ("morpheus", MorpheusController),
        ):
            feedback = self.build_feedback(sim, strategy)
            assert isinstance(feedback.controller, cls)

    def test_unknown_strategy_message_lists_names(self, sim):
        with pytest.raises(ConfigError) as excinfo:
            self.build_feedback(sim, "typo")
        assert "knapsack" in str(excinfo.value)
