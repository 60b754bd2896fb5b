"""Oracle baseline: feedback control fed by *true* response latencies.

§2.4 notes that LBs which terminate TCP on both sides see requests and
responses and can measure latency exactly — at a cost that rules them
out at the layer this paper targets.  :class:`OracleFeedback` models
that upper bound without changing the topology: it receives each
completed request's ground-truth latency (from the client's record
stream, attributed by the responding server) and drives the same
estimator and control law as the in-band design: the law is built by
name from ``FeedbackConfig.strategy``, through the controller registry.

Comparing the in-band loop against this oracle isolates the cost of the
paper's *measurement* substitution (T_LB vs T_client) from the cost of
its *control* strategy.
"""

from __future__ import annotations

from typing import Optional

from repro.app.client import RequestRecord
from repro.controllers.base import Controller
from repro.controllers.registry import create as create_controller
from repro.core.estimator import BackendLatencyEstimator
from repro.core.feedback import FeedbackConfig
from repro.lb.backend import BackendPool


class OracleFeedback:
    """Controller driven by exact per-request latencies.

    Wire it to a client with ``client.on_record = oracle.on_record``.
    Reads ``estimator``, ``strategy`` (with its tunables) and
    ``control`` from ``config``; the in-band measurement settings do
    not apply.
    """

    def __init__(self, pool: BackendPool, config: Optional[FeedbackConfig] = None):
        config = config or FeedbackConfig()
        self.estimator = BackendLatencyEstimator(config.estimator)
        self.controller: Optional[Controller] = None
        if config.control:
            self.controller = create_controller(
                config.strategy, pool, self.estimator, config
            )

    def on_record(self, record: RequestRecord) -> None:
        """Consume one completed-request record from a client."""
        if record.server is None:
            return
        self.estimator.observe(record.server, record.completed_at, record.latency)
        if self.controller is not None:
            self.controller.maybe_update(record.completed_at)
