"""Registry-wide exposition round trip on a fully-armed scenario.

Every other metrics test checks a handful of hand-picked families.
This one arms *every* plane that registers instruments — obs,
resilience (ladder + breakers), fleet, and the campaign audit — then
renders the whole registry through the strict exposition parser and
asserts the parse reproduces the registry's own ``to_json()`` view:
same families, same types, same label sets, same values.  Any
instrument added later is covered automatically.  ``TestGoldens`` also
pins the exact text of this run, of the CLI's metrics dump and of every
observer's render of a run whose flows outlive an epoch.
"""

import math

import pytest

from repro.obs.metrics import parse_prometheus_text
from tests import metrics_goldens


@pytest.fixture(scope="module")
def scenario():
    """One run with every metric-registering plane armed."""
    return metrics_goldens.armed_scenario()


@pytest.fixture(scope="module")
def registry(scenario):
    return scenario.obs.registry


@pytest.fixture(scope="module")
def parsed(registry):
    return parse_prometheus_text(registry.to_prometheus())


def scalar_samples(parsed, name, family=None):
    """Series of ``name`` keyed by label set (histogram suffixes live
    under their base family, so pass ``family`` for those)."""
    return {
        tuple(sorted(labels.items())): value
        for sample_name, labels, value in parsed[family or name]["samples"]
        if sample_name == name
    }


class TestCoverage:
    def test_every_armed_plane_registered_families(self, registry):
        names = {family.name for family in registry.families()}
        expected = {
            "repro_lb_packets_total",            # LB plane
            "repro_tlb_samples_total",           # feedback plane
            "repro_tlb_latency_ns",              # estimator histogram
            "repro_weight_shifts_total",         # controller
            "repro_mode_transitions_total",      # resilience ladder
            "repro_breaker_transitions_total",   # resilience breakers
            "repro_fleet_scaling_decisions_total",  # fleet autoscaler
            "repro_fleet_transitions_total",     # fleet lifecycle
            "repro_invariant_checks_total",      # campaign audit
            "repro_sim_events_processed",        # engine
        }
        missing = expected - names
        assert not missing, "armed planes failed to register: %s" % missing

    def test_parse_sees_every_family(self, registry, parsed):
        for family in registry.families():
            assert family.name in parsed, family.name


class TestTypeFidelity:
    def test_types_survive_the_round_trip(self, registry, parsed):
        for family in registry.families():
            assert parsed[family.name]["type"] == family.kind, family.name

    def test_help_text_survives(self, registry, parsed):
        for family in registry.families():
            assert parsed[family.name]["help"] is not None, family.name


class TestValueFidelity:
    def test_scalar_values_and_labels_match_to_json(self, registry, parsed):
        rendered = registry.to_json()
        for name, family in rendered.items():
            if family["type"] == "histogram":
                continue
            got = scalar_samples(parsed, name)
            expected = {
                tuple(sorted(sample["labels"].items())): sample["value"]
                for sample in family["samples"]
            }
            assert got == pytest.approx(expected), name

    def test_histograms_round_trip_count_sum_and_buckets(
        self, registry, parsed
    ):
        rendered = registry.to_json()
        checked = 0
        for name, family in rendered.items():
            if family["type"] != "histogram":
                continue
            for sample in family["samples"]:
                key = tuple(sorted(sample["labels"].items()))
                assert scalar_samples(parsed, name + "_count", name)[
                    key
                ] == sample["count"]
                assert scalar_samples(parsed, name + "_sum", name)[
                    key
                ] == pytest.approx(sample["sum"])
                # Exposition buckets are cumulative; json buckets are not.
                cumulative = 0
                buckets = {
                    labels["le"]: value
                    for _n, labels, value in parsed[name]["samples"]
                    if _n == name + "_bucket"
                    and tuple(
                        sorted(p for p in labels.items() if p[0] != "le")
                    ) == key
                }
                for bucket in sample["buckets"]:
                    cumulative += bucket["count"]
                    le = (
                        "+Inf"
                        if math.isinf(bucket["le"])
                        else None
                    )
                    if le is None:
                        matches = [
                            v
                            for k, v in buckets.items()
                            if k != "+Inf" and float(k) == bucket["le"]
                        ]
                        assert matches == [cumulative], (name, bucket["le"])
                    else:
                        assert buckets["+Inf"] >= cumulative
                assert buckets["+Inf"] == sample["count"]
            checked += 1
        assert checked > 0, "the armed scenario must register a histogram"

    def test_no_unaccounted_samples(self, registry, parsed):
        # The parser attributes every sample line to a registered family
        # and invents none: total parsed series == total rendered series.
        rendered = registry.to_json()
        expected = 0
        for name, family in rendered.items():
            for sample in family["samples"]:
                if family["type"] == "histogram":
                    # per-le buckets + +Inf + _sum + _count
                    expected += len(sample["buckets"]) + 3
                else:
                    expected += 1
        got = sum(len(f["samples"]) for f in parsed.values())
        assert got == expected

    def test_fleet_transitions_match_the_lifecycle_log(
        self, scenario, parsed
    ):
        # The initial pool's new->in_service edges happen before the
        # plane is installed; the counter must include them.
        edges = {
            "%s->%s" % (labels["from_state"], labels["to_state"]): value
            for _name, labels, value in parsed[
                "repro_fleet_transitions_total"
            ]["samples"]
        }
        assert edges == scenario.fleet.lifecycle.transition_counts()
        assert edges["new->in_service"] == 2

    def test_armed_run_actually_moved_the_needle(self, parsed):
        packets = scalar_samples(parsed, "repro_lb_packets_total")
        assert sum(packets.values()) > 0
        checks = scalar_samples(parsed, "repro_invariant_checks_total")
        assert sum(checks.values()) > 0


class TestGoldens:
    """Byte-identical exposition; regenerate with ``metrics_goldens.py``."""

    def test_armed_exposition_matches_golden(self, registry):
        golden = metrics_goldens.read(metrics_goldens.ARMED_GOLDEN)
        assert registry.to_prometheus() == golden

    def test_cli_metrics_dump_matches_golden(self):
        golden = metrics_goldens.read(metrics_goldens.CLI_GOLDEN)
        assert metrics_goldens.cli_metrics_text() == golden

    def test_epoch_run_matches_golden(self):
        """Epoch rolls, cliff picks, the timeline and the shift
        attributions of a run whose flows outlive an epoch."""
        golden = metrics_goldens.read(metrics_goldens.EPOCHS_GOLDEN)
        assert metrics_goldens.epochs_text() == golden
