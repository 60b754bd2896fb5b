"""The paper's contribution: in-band measurement and feedback control.

* :mod:`~repro.core.fixed_timeout` — **Algorithm 1, FIXEDTIMEOUT**:
  flowlet-style batch segmentation of one flow's client→server packet
  arrivals with a fixed inter-batch timeout δ; the gap between first
  packets of successive batches estimates the response latency
  ``T_LB``.
* :mod:`~repro.core.ensemble` — **Algorithm 2, ENSEMBLETIMEOUT**: runs
  an ensemble of exponentially-spaced timeouts, counts samples per
  timeout over an epoch, detects the *sample cliff* and adopts the
  cliff timeout for the next epoch.
* :mod:`~repro.core.estimator` — aggregates per-flow ``T_LB`` samples
  into per-backend latency estimates.
* :mod:`~repro.core.controller` — the paper's simple strategy: shift a
  fixed fraction α of total traffic away from the worst backend.
* :mod:`~repro.core.feedback` — wires taps → measurement → estimator →
  controller → weighted Maglev, forming the in-band feedback loop.
"""

from repro._exports import lazy_exports

__all__ = [
    "FixedTimeout",
    "EnsembleTimeout",
    "EnsembleConfig",
    "default_timeouts",
    "BackendLatencyEstimator",
    "BackendEstimate",
    "EstimatorConfig",
    "AlphaShiftController",
    "ControllerConfig",
    "InbandFeedback",
    "FeedbackConfig",
]

_EXPORTS = {
    "FixedTimeout": ".fixed_timeout",
    "EnsembleConfig": ".ensemble",
    "EnsembleTimeout": ".ensemble",
    "default_timeouts": ".ensemble",
    "BackendEstimate": ".estimator",
    "BackendLatencyEstimator": ".estimator",
    "EstimatorConfig": ".estimator",
    "AlphaShiftController": ".controller",
    "ControllerConfig": ".controller",
    "InbandFeedback": ".feedback",
    "FeedbackConfig": ".feedback",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
