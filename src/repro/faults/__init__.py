"""Declarative fault injection — the chaos plane.

The repo started with exactly one fault knob (the Fig 3 delay
injection); this package generalizes it into a subsystem: typed fault
specs (:mod:`~repro.faults.model`), a validating/compiling timetable
(:mod:`~repro.faults.schedule`), an injector that binds schedules to a
built topology with deterministic revert-on-expiry
(:mod:`~repro.faults.injector`), a preset library
(:mod:`~repro.faults.presets`), and a textual spec parser for the CLI
(:mod:`~repro.faults.parse`).

Quick start::

    from repro.faults import DelayFault, LossFault
    from repro.harness import PolicyName, ScenarioConfig, run_scenario
    from repro.units import MILLISECONDS, seconds

    config = ScenarioConfig(
        duration=seconds(2),
        policy=PolicyName.FEEDBACK,
        faults=[
            DelayFault(start=seconds(1), extra=1 * MILLISECONDS, node="server0"),
            LossFault(start=seconds(1), prob=0.02, node="server*"),
        ],
    )
    result = run_scenario(config)
    print(result.report())        # latency timeline annotated with fault windows
"""

from repro._exports import lazy_exports

__all__ = [
    "ArmedWindow",
    "FaultEvent",
    "Injector",
    "FaultSpec",
    "DelayFault",
    "JitterFault",
    "LossFault",
    "ThrottleFault",
    "ServerSlowdownFault",
    "ServerPauseFault",
    "CrashRestartFault",
    "PartitionFault",
    "fault_to_dict",
    "fault_from_dict",
    "FaultSchedule",
    "FaultWindow",
    "PRESETS",
    "preset",
    "parse_faults",
    "FAULT_KINDS",
    "PIPE_FAULTS",
    "SERVER_FAULTS",
    "TOPOLOGY_FAULTS",
    "DIRECTIONS",
    "LB_TO_SERVER",
    "CLIENT_TO_LB",
    "SERVER_TO_CLIENT",
]

_EXPORTS = {
    "ArmedWindow": ".injector",
    "FaultEvent": ".injector",
    "Injector": ".injector",
    "CLIENT_TO_LB": ".model",
    "DIRECTIONS": ".model",
    "FAULT_KINDS": ".model",
    "LB_TO_SERVER": ".model",
    "PIPE_FAULTS": ".model",
    "SERVER_FAULTS": ".model",
    "SERVER_TO_CLIENT": ".model",
    "TOPOLOGY_FAULTS": ".model",
    "CrashRestartFault": ".model",
    "DelayFault": ".model",
    "FaultSpec": ".model",
    "JitterFault": ".model",
    "LossFault": ".model",
    "PartitionFault": ".model",
    "ServerPauseFault": ".model",
    "ServerSlowdownFault": ".model",
    "ThrottleFault": ".model",
    "fault_from_dict": ".model",
    "fault_to_dict": ".model",
    "parse_faults": ".parse",
    "PRESETS": ".presets",
    "preset": ".presets",
    "FaultSchedule": ".schedule",
    "FaultWindow": ".schedule",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
