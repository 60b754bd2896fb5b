"""``repro.campaign`` — chaos campaigns with judged invariants.

The campaign plane closes the loop the chaos plane opened: instead of
hand-picked fault presets judged by eyeball, a campaign *generates*
randomized fault schedules under an intensity budget
(:mod:`~repro.campaign.generator`), runs them across the controller
zoo through the cached sweep executor
(:mod:`~repro.campaign.runner`), judges every run against a registry
of safety and liveness invariants
(:mod:`~repro.campaign.registry` / :mod:`~repro.campaign.invariants`),
and — when something breaks — delta-debugs the schedule down to a
minimal, replayable reproducer artifact
(:mod:`~repro.campaign.shrink` / :mod:`~repro.campaign.artifact`).

Everything is deterministic per seed: the same campaign config yields
byte-identical schedules, verdicts, and shrunk reproducers at any
``--jobs`` level.
"""

from repro._exports import lazy_exports

# Importing the invariant module populates the registry, so it stays
# eager: whoever imports any part of the package finds every invariant.
from repro.campaign import invariants  # noqa: F401

__all__ = [
    "ALL_KINDS",
    "ARTIFACT_FORMAT",
    "CampaignConfig",
    "CampaignContext",
    "CampaignPoint",
    "CampaignReport",
    "GeneratorConfig",
    "InvariantSpec",
    "InvariantVerdict",
    "ShrinkStats",
    "available",
    "build_point_config",
    "campaign_point",
    "campaign_points",
    "evaluate",
    "fault_intensity",
    "generate_schedule",
    "get_spec",
    "load_artifact",
    "load_violations",
    "register",
    "replay_artifact",
    "run_campaign",
    "schedule_intensity",
    "shrink_point",
    "specs",
    "write_artifact",
]

_EXPORTS = {
    "ARTIFACT_FORMAT": ".artifact",
    "load_artifact": ".artifact",
    "load_violations": ".artifact",
    "write_artifact": ".artifact",
    "ALL_KINDS": ".config",
    "CampaignConfig": ".config",
    "GeneratorConfig": ".config",
    "fault_intensity": ".generator",
    "generate_schedule": ".generator",
    "schedule_intensity": ".generator",
    "CampaignContext": ".invariants",
    "InvariantVerdict": ".invariants",
    "evaluate": ".invariants",
    "InvariantSpec": ".registry",
    "available": ".registry",
    "get_spec": ".registry",
    "register": ".registry",
    "specs": ".registry",
    "CampaignPoint": ".runner",
    "CampaignReport": ".runner",
    "build_point_config": ".runner",
    "campaign_point": ".runner",
    "campaign_points": ".runner",
    "replay_artifact": ".runner",
    "run_campaign": ".runner",
    "ShrinkStats": ".shrink",
    "shrink_point": ".shrink",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
