"""Oracle feedback baseline."""

from repro.app.client import RequestRecord
from repro.app.protocol import Op
from repro.controllers import ProportionalController
from repro.core.controller import ControllerConfig
from repro.core.estimator import EstimatorConfig
from repro.core.feedback import FeedbackConfig
from repro.lb.backend import Backend, BackendPool
from repro.lb.oracle import OracleFeedback
from repro.units import MILLISECONDS


def record(server, latency, t):
    return RequestRecord(
        request_id=1,
        op=Op.GET,
        sent_at=t - latency,
        completed_at=t,
        latency=latency,
        server=server,
        local_port=40_000,
    )


class TestOracleFeedback:
    def test_estimates_from_records(self):
        pool = BackendPool([Backend("s0"), Backend("s1")])
        oracle = OracleFeedback(pool, FeedbackConfig(control=False))
        oracle.on_record(record("s0", 100_000, 1_000_000))
        oracle.on_record(record("s1", 900_000, 1_000_000))
        assert oracle.estimator.estimate("s0") == 100_000
        assert oracle.estimator.estimate("s1") == 900_000

    def test_records_without_server_ignored(self):
        pool = BackendPool([Backend("s0")])
        oracle = OracleFeedback(pool, FeedbackConfig(control=False))
        rec = record(None, 100, 1000)
        oracle.on_record(rec)
        assert oracle.estimator.total_samples == 0

    def test_control_shifts_weights(self):
        pool = BackendPool([Backend("s0"), Backend("s1")])
        oracle = OracleFeedback(
            pool,
            FeedbackConfig(
                estimator=EstimatorConfig(min_samples=1),
                controller=ControllerConfig(hysteresis_ratio=1.1),
            ),
        )
        t = 0
        for _ in range(10):
            t += 1 * MILLISECONDS
            oracle.on_record(record("s0", 2 * MILLISECONDS, t))
            oracle.on_record(record("s1", 100_000, t))
        weights = pool.weights()
        assert weights["s0"] < 1.0
        assert weights["s1"] > 1.0
        assert oracle.controller is not None
        assert len(oracle.controller.updates) > 0

    def test_no_controller_in_measure_mode(self):
        pool = BackendPool([Backend("s0")])
        assert OracleFeedback(pool, FeedbackConfig(control=False)).controller is None

    def test_strategy_selects_the_law(self):
        pool = BackendPool([Backend("s0"), Backend("s1")])
        oracle = OracleFeedback(pool, FeedbackConfig(strategy="proportional"))
        assert isinstance(oracle.controller, ProportionalController)
