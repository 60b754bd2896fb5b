"""Property-based tests (hypothesis) for core data structures and the
paper's algorithms.

These check invariants over generated inputs rather than examples:
FIXEDTIMEOUT's batch algebra, ENSEMBLETIMEOUT's selection domain, Maglev
apportionment, the sliding-window quantile against a model, the LRU
store against a reference dict, and the simulator's ordering guarantee.
"""

import random

import pytest
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.kvstore import KeyValueStore
from repro.core.controller import AlphaShiftController, ControllerConfig
from repro.core.ensemble import EnsembleConfig, EnsembleTimeout
from repro.core.estimator import BackendLatencyEstimator, EstimatorConfig
from repro.core.fixed_timeout import FixedTimeout
from repro.lb.backend import Backend, BackendPool
from repro.lb.maglev import MaglevTable
from repro.sim.engine import Simulator
from repro.telemetry.quantiles import WindowedQuantile, exact_quantile
from repro.telemetry.summary import summarize


# ----------------------------------------------------------------------
# FIXEDTIMEOUT (Algorithm 1)
# ----------------------------------------------------------------------

gaps = st.lists(st.integers(min_value=1, max_value=10_000_000), min_size=1, max_size=200)


@given(gaps=gaps, delta=st.integers(min_value=1, max_value=1_000_000))
def test_fixed_timeout_samples_are_sums_of_batch_gaps(gaps, delta):
    """Every T_LB equals the time between two batch-head arrivals, and the
    sum of all samples never exceeds the total elapsed time."""
    ft = FixedTimeout(delta)
    now = 0
    arrivals = [0]
    ft.observe(0)
    samples = []
    for gap in gaps:
        now += gap
        arrivals.append(now)
        sample = ft.observe(now)
        if sample is not None:
            samples.append(sample)
    assert all(s > delta for s in samples)  # a batch gap exceeds delta
    assert sum(samples) <= now


@given(gaps=gaps, delta=st.integers(min_value=1, max_value=1_000_000))
def test_fixed_timeout_sample_count_equals_long_gaps(gaps, delta):
    """A sample is emitted exactly when an inter-packet gap exceeds δ."""
    ft = FixedTimeout(delta)
    now = 0
    ft.observe(0)
    emitted = 0
    for gap in gaps:
        now += gap
        if ft.observe(now) is not None:
            emitted += 1
    expected = sum(1 for gap in gaps if gap > delta)
    assert emitted == expected


@given(
    gaps=gaps,
    deltas=st.lists(
        st.integers(min_value=1, max_value=1_000_000),
        min_size=2,
        max_size=6,
        unique=True,
    ),
)
def test_smaller_delta_never_fewer_samples(gaps, deltas):
    """Monotonicity behind the sample cliff: smaller timeouts can only
    produce at least as many samples (the paper's Fig 2a intuition)."""
    deltas = sorted(deltas)
    counts = []
    for delta in deltas:
        ft = FixedTimeout(delta)
        now = 0
        ft.observe(0)
        count = 0
        for gap in gaps:
            now += gap
            if ft.observe(now) is not None:
                count += 1
        counts.append(count)
    assert counts == sorted(counts, reverse=True)


# ----------------------------------------------------------------------
# ENSEMBLETIMEOUT (Algorithm 2)
# ----------------------------------------------------------------------


@given(gaps=gaps)
@settings(max_examples=50)
def test_ensemble_selection_stays_in_domain(gaps):
    ensemble = EnsembleTimeout(
        EnsembleConfig(timeouts=[1_000, 10_000, 100_000], epoch=500_000)
    )
    now = 0
    for gap in gaps:
        now += gap
        sample = ensemble.observe(now)
        assert ensemble.current_timeout in (1_000, 10_000, 100_000)
        if sample is not None:
            assert sample > 0


@given(gaps=gaps)
@settings(max_examples=50)
def test_ensemble_counts_match_standalone_fixed_timeouts(gaps):
    """The ensemble's per-timeout counters equal independent FIXEDTIMEOUT
    runs over the same arrivals (within one epoch)."""
    timeouts = [1_000, 10_000, 100_000]
    huge_epoch = 10**15  # never roll over
    ensemble = EnsembleTimeout(EnsembleConfig(timeouts=timeouts, epoch=huge_epoch))
    independent = [FixedTimeout(d) for d in timeouts]
    now = 0
    ensemble.observe(0)
    for ft in independent:
        ft.observe(0)
    expected = [0, 0, 0]
    for gap in gaps:
        now += gap
        ensemble.observe(now)
        for index, ft in enumerate(independent):
            if ft.observe(now) is not None:
                expected[index] += 1
    assert ensemble.sample_counts() == expected


# ----------------------------------------------------------------------
# Maglev
# ----------------------------------------------------------------------

weight_maps = st.dictionaries(
    keys=st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    values=st.floats(min_value=0.01, max_value=100.0),
    min_size=1,
    max_size=8,
)


@given(weights=weight_maps)
@settings(max_examples=30)
def test_maglev_slots_proportional_and_complete(weights):
    table = MaglevTable(251)
    table.build(weights)
    counts = table.slot_counts()
    assert sum(counts.values()) == 251
    assert set(counts) == set(weights)
    total_weight = sum(weights.values())
    for name, count in counts.items():
        expected = 251 * weights[name] / total_weight
        assert abs(count - expected) <= max(3.0, 0.05 * 251)


@given(weights=weight_maps, flows=st.lists(st.integers(), min_size=1, max_size=50))
@settings(max_examples=30)
def test_maglev_lookup_total_function(weights, flows):
    table = MaglevTable(251)
    table.build(weights)
    for flow in flows:
        assert table.lookup(flow) in weights


# ----------------------------------------------------------------------
# Telemetry models
# ----------------------------------------------------------------------


@given(
    values=st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=300,
    ),
    window=st.integers(min_value=1, max_value=50),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_windowed_quantile_matches_reference(values, window, q):
    wq = WindowedQuantile(window)
    for value in values:
        wq.observe(value)
    reference = values[-window:]
    assert wq.quantile(q) == exact_quantile(reference, q)


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_summary_percentiles_are_ordered_and_bounded(values):
    summary = summarize(values)
    assert summary.min <= summary.p50 <= summary.p90 <= summary.p95
    assert summary.p95 <= summary.p99 <= summary.max
    # The mean is computed as sum/len and may exceed max (or undershoot
    # min) by an ulp when all values are equal; allow that rounding.
    slack = 1e-9 * max(abs(summary.min), abs(summary.max), 1.0)
    assert summary.min - slack <= summary.mean <= summary.max + slack


# ----------------------------------------------------------------------
# KV store vs reference model
# ----------------------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.sampled_from(["get", "set", "delete"]),
        st.integers(min_value=0, max_value=9),  # key id
        st.integers(min_value=1, max_value=50),  # value size
    ),
    max_size=200,
)


@given(operations=ops)
def test_kvstore_unbounded_matches_dict(operations):
    store = KeyValueStore()
    model = {}
    for op, key_id, size in operations:
        key = "k%d" % key_id
        if op == "set":
            store.set(key, size)
            model[key] = size
        elif op == "get":
            assert store.get(key) == model.get(key)
        else:
            assert store.delete(key) == (model.pop(key, None) is not None)
    assert store.used_bytes == sum(model.values())


@given(operations=ops, capacity=st.integers(min_value=50, max_value=300))
def test_kvstore_lru_matches_ordered_dict_model(operations, capacity):
    store = KeyValueStore(capacity_bytes=capacity)
    model = OrderedDict()

    def model_evict():
        used = sum(model.values())
        while used > capacity and len(model) > 1:
            _k, size = model.popitem(last=False)
            used -= size

    for op, key_id, size in operations:
        key = "k%d" % key_id
        if op == "set":
            store.set(key, size)
            model.pop(key, None)
            model[key] = size
            model_evict()
        elif op == "get":
            expected = model.get(key)
            if expected is not None:
                model.move_to_end(key)
            assert store.get(key) == expected
        else:
            assert store.delete(key) == (model.pop(key, None) is not None)
    assert store.used_bytes == sum(model.values())


# ----------------------------------------------------------------------
# Controller conservation
# ----------------------------------------------------------------------


@given(
    latencies=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10_000_000),
            st.integers(min_value=1, max_value=10_000_000),
        ),
        min_size=1,
        max_size=50,
    ),
    alpha=st.floats(min_value=0.01, max_value=0.5),
)
@settings(max_examples=50)
def test_controller_conserves_total_weight_and_respects_floor(latencies, alpha):
    pool = BackendPool([Backend("a"), Backend("b"), Backend("c")])
    estimator = BackendLatencyEstimator(EstimatorConfig(min_samples=1))
    controller = AlphaShiftController(
        pool,
        estimator,
        ControllerConfig(alpha=alpha, weight_floor=0.05, hysteresis_ratio=1.0),
    )
    now = 0
    for lat_a, lat_b in latencies:
        now += 1_000_000
        estimator.observe("a", now, lat_a)
        estimator.observe("b", now, lat_b)
        estimator.observe("c", now, (lat_a + lat_b) // 2)
        controller.maybe_update(now)
        weights = pool.weights()
        assert abs(sum(weights.values()) - 3.0) < 1e-9
        assert all(w >= 0.05 * 3.0 - 1e-9 for w in weights.values())


# ----------------------------------------------------------------------
# Weight renormalization (strategies)
# ----------------------------------------------------------------------


@given(
    weights=st.dictionaries(
        keys=st.sampled_from(["a", "b", "c", "d", "e"]),
        values=st.floats(min_value=0.0, max_value=100.0),
        min_size=1,
        max_size=5,
    ),
    total=st.floats(min_value=0.5, max_value=50.0),
    floor_frac=st.floats(min_value=0.0, max_value=0.19),
)
def test_renormalize_with_floor_conserves_total_and_floors(
    weights, total, floor_frac
):
    from repro.controllers.base import renormalize_with_floor

    floor = floor_frac * total / max(1, len(weights))
    result = renormalize_with_floor(weights, total, floor)
    assert set(result) == set(weights)
    assert sum(result.values()) == pytest.approx(total, rel=1e-6)
    for value in result.values():
        assert value >= floor - 1e-9


# ----------------------------------------------------------------------
# ConnTrack per-backend counts vs a reference model
# ----------------------------------------------------------------------


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "lookup"]),
            st.integers(min_value=0, max_value=9),   # flow id
            st.integers(min_value=0, max_value=2),   # backend id
        ),
        max_size=150,
    )
)
def test_conntrack_counts_match_reference(operations):
    from repro.lb.conntrack import ConnTrack
    from repro.net.addr import FlowKey

    track = ConnTrack()
    model = {}
    now = 0
    for op, flow_id, backend_id in operations:
        now += 1
        flow = FlowKey("c", 40_000 + flow_id, "vip", 80)
        backend = "s%d" % backend_id
        if op == "insert":
            track.insert(flow, backend, now)
            model[flow] = backend
        else:
            assert track.lookup(flow, now) == model.get(flow)
    from collections import Counter

    expected = Counter(model.values())
    for backend in ("s0", "s1", "s2"):
        assert track.active_flows(backend) == expected.get(backend, 0)


# ----------------------------------------------------------------------
# Simulator ordering
# ----------------------------------------------------------------------


@given(
    delays=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=100)
)
def test_simulator_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule_fire(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
