"""Sweep specification expansion."""

import json

import pytest

from repro.errors import ConfigError
from repro.faults.model import DelayFault, LossFault
from repro.harness.config import PolicyName, ScenarioConfig
from repro.sim.random import derive_seed
from repro.sweep import (
    SweepSpec,
    apply_overrides,
    load_spec,
    parse_axis,
    parse_scalar,
)
from repro.units import MILLISECONDS, SECONDS


def _base(**kwargs):
    kwargs.setdefault("duration", 500 * MILLISECONDS)
    return ScenarioConfig(**kwargs)


class TestGridExpansion:
    def test_empty_spec_is_one_base_point(self):
        points = SweepSpec(base=_base()).expand()
        assert len(points) == 1
        assert points[0].overrides == {}
        assert points[0].label == "base"
        assert points[0].config.seed == 1  # base seed untouched

    def test_grid_is_cartesian_product(self):
        spec = SweepSpec(
            base=_base(),
            grid={"feedback.controller.alpha": [0.05, 0.1], "seed": [1, 2, 3]},
        )
        points = spec.expand()
        assert len(points) == 6
        combos = {
            (p.overrides["feedback.controller.alpha"], p.overrides["seed"])
            for p in points
        }
        assert combos == {(a, s) for a in (0.05, 0.1) for s in (1, 2, 3)}

    def test_expansion_order_is_deterministic(self):
        spec = SweepSpec(base=_base(), grid={"seed": [2, 1], "n_servers": [3, 2]})
        first = [p.overrides for p in spec.expand()]
        second = [p.overrides for p in spec.expand()]
        assert first == second

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(base=_base(), grid={"seed": []}).expand()

    def test_configs_are_independent_copies(self):
        spec = SweepSpec(base=_base(), grid={"seed": [1, 2]})
        points = spec.expand()
        points[0].config.n_servers = 99
        assert points[1].config.n_servers != 99
        assert spec.base.n_servers != 99

    def test_override_values_are_copies(self):
        timeouts = [1000, 2000]
        spec = SweepSpec(
            base=_base(),
            grid={"feedback.ensemble.timeouts": [timeouts], "seed": [1, 2]},
        )
        points = spec.expand()
        points[0].config.feedback.ensemble.timeouts.append(3000)
        assert timeouts == [1000, 2000]
        assert points[1].config.feedback.ensemble.timeouts == [1000, 2000]


class TestZipExpansion:
    def test_zipped_axes_advance_together(self):
        spec = SweepSpec(
            base=_base(),
            zipped={"seed": [1, 2], "n_servers": [2, 3]},
        )
        points = spec.expand()
        assert [p.overrides for p in points] == [
            {"n_servers": 2, "seed": 1},
            {"n_servers": 3, "seed": 2},
        ]

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(
                base=_base(), zipped={"seed": [1, 2], "n_servers": [2]}
            ).expand()

    def test_zip_composes_with_grid(self):
        spec = SweepSpec(
            base=_base(),
            grid={"memtier.pipeline": [1, 2]},
            zipped={"seed": [5, 6], "n_servers": [2, 3]},
        )
        assert len(spec.expand()) == 4


class TestPointsAndSeeds:
    def test_explicit_points(self):
        spec = SweepSpec(
            base=_base(),
            points=[{"seed": 9}, {"n_servers": 4, "seed": 10}],
        )
        points = spec.expand()
        assert len(points) == 2
        assert points[1].config.n_servers == 4

    def test_seeds_axis_replicates_points(self):
        spec = SweepSpec(
            base=_base(), grid={"n_servers": [2, 3]}, seeds=[7, 8]
        )
        points = spec.expand()
        assert len(points) == 4
        assert {p.config.seed for p in points} == {7, 8}

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(base=_base(), seeds=[]).expand()


class TestSeedDerivation:
    def test_derived_seed_is_stable_and_decorrelated(self):
        spec = SweepSpec(
            base=_base(), grid={"feedback.controller.alpha": [0.1, 0.2]}
        )
        points = spec.expand()
        again = spec.expand()
        assert [p.config.seed for p in points] == [p.config.seed for p in again]
        assert points[0].config.seed != points[1].config.seed
        assert points[0].config.seed != spec.base.seed

    def test_explicit_seed_not_overridden(self):
        spec = SweepSpec(base=_base(), grid={"seed": [41, 42]})
        assert [p.config.seed for p in spec.expand()] == [41, 42]

    def test_derivation_can_be_disabled(self):
        spec = SweepSpec(
            base=_base(),
            grid={"feedback.controller.alpha": [0.1, 0.2]},
            derive_seeds=False,
        )
        assert [p.config.seed for p in spec.expand()] == [1, 1]

    def test_derive_seed_matches_expansion(self):
        spec = SweepSpec(base=_base(), grid={"n_servers": [3]})
        point = spec.expand()[0]
        assert point.config.seed == derive_seed(
            spec.base.seed, "sweep-point", '{"n_servers":3}'
        )


class TestOverridePaths:
    def test_nested_path(self):
        config = apply_overrides(
            _base(), {"feedback.controller.alpha": 0.42}
        )
        assert config.feedback.controller.alpha == 0.42

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigError, match="no field"):
            apply_overrides(_base(), {"feedback.controller.alhpa": 0.1})

    def test_policy_string_coerced(self):
        config = apply_overrides(_base(), {"policy": "maglev"})
        assert config.policy is PolicyName.MAGLEV
        with pytest.raises(ConfigError, match="unknown policy"):
            apply_overrides(_base(), {"policy": "nonsense"})

    def test_time_string_coerced_for_int_fields(self):
        config = apply_overrides(_base(), {"duration": "250ms"})
        assert config.duration == 250 * MILLISECONDS

    def test_fault_strings_expand_against_final_duration(self):
        config = apply_overrides(
            _base(),
            {
                "duration": "1s",
                "faults": ["delay:node=server0,start=600ms,extra=1ms"],
            },
        )
        assert config.duration == 1 * SECONDS
        assert len(config.faults) == 1
        fault = config.faults[0]
        assert isinstance(fault, DelayFault)
        assert fault.start == 600 * MILLISECONDS
        config.validate()  # 600ms < 1s: duration was applied first

    def test_fault_instances_pass_through(self):
        fault = LossFault(start=0, prob=0.1)
        config = apply_overrides(_base(), {"faults": [fault]})
        assert config.faults == [fault]

    def test_bad_fault_entry_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(_base(), {"faults": [42]})


class TestLabels:
    def test_label_uses_leaf_names_sorted(self):
        spec = SweepSpec(
            base=_base(),
            points=[{"feedback.controller.alpha": 0.1, "seed": 3}],
        )
        assert spec.expand()[0].label == "alpha=0.1,seed=3"


class TestSpecFiles:
    def test_from_dict_roundtrip(self, tmp_path):
        doc = {
            "name": "alpha-grid",
            "base": {"duration": "400ms", "policy": "feedback"},
            "grid": {"feedback.controller.alpha": [0.05, 0.1]},
            "seeds": [1, 2],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_spec(str(path))
        assert spec.name == "alpha-grid"
        assert spec.base.duration == 400 * MILLISECONDS
        assert len(spec.expand()) == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"grdi": {}})

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_spec("/nonexistent/spec.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_spec(str(path))


class TestInlineParsing:
    def test_parse_axis(self):
        path, values = parse_axis("feedback.controller.alpha=0.05,0.1")
        assert path == "feedback.controller.alpha"
        assert values == [0.05, 0.1]

    def test_parse_axis_rejects_malformed(self):
        for text in ("noequals", "=1,2", "path="):
            with pytest.raises(ConfigError):
                parse_axis(text)

    def test_parse_scalar_forms(self):
        assert parse_scalar("3") == 3
        assert parse_scalar("0.5") == 0.5
        assert parse_scalar("250ms") == 250 * MILLISECONDS
        assert parse_scalar("maglev") == "maglev"
        with pytest.raises(ConfigError):
            parse_scalar("maglev", want_time=True)
