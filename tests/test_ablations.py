"""Every ablation is a sweep spec the one sweep path can run."""

import argparse

from repro.cli import build_parser
from repro.harness.ablations import ABLATIONS


def _ablation_choices():
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            verb = action.choices["ablation"]
            return next(a.choices for a in verb._actions if a.dest == "sweep")
    raise AssertionError("no subcommands")


def test_specs_expand_on_their_base_seed_and_match_the_cli():
    for name, (spec, row) in ABLATIONS.items():
        points = spec.expand()  # validates every point's config
        assert len(points) > 1, name
        assert callable(row), name
        for point in points:
            # No derived seeds: a point runs on its base seed unless the
            # spec sweeps the seed itself.
            expected = point.overrides.get("seed", spec.base.seed)
            assert point.config.seed == expected, (name, point.label)
    assert list(_ablation_choices()) == sorted(ABLATIONS)
