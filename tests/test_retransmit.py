"""RTO estimation (RFC 6298 subset)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.transport.retransmit import RttEstimator
from repro.units import MILLISECONDS, SECONDS


class TestRttEstimator:
    def test_initial_rto(self):
        est = RttEstimator(initial_rto=100 * MILLISECONDS)
        assert est.rto == 100 * MILLISECONDS
        assert est.srtt is None

    def test_first_sample_sets_srtt(self):
        est = RttEstimator()
        est.sample(10 * MILLISECONDS)
        assert est.srtt == pytest.approx(10 * MILLISECONDS)

    def test_rto_converges_for_steady_rtt(self):
        est = RttEstimator()
        for _ in range(50):
            est.sample(10 * MILLISECONDS)
        # RTTVAR -> 0, so RTO -> max(rto_min, srtt).
        assert est.rto == pytest.approx(10 * MILLISECONDS, rel=0.2)

    def test_rto_floor(self):
        est = RttEstimator(rto_min=5 * MILLISECONDS)
        for _ in range(50):
            est.sample(100_000)  # 0.1 ms RTT
        assert est.rto == 5 * MILLISECONDS

    def test_rto_ceiling(self):
        est = RttEstimator(rto_max=1 * SECONDS)
        est.sample(10 * SECONDS)
        assert est.rto == 1 * SECONDS

    def test_variance_raises_rto(self):
        stable = RttEstimator()
        jittery = RttEstimator()
        for i in range(50):
            stable.sample(10 * MILLISECONDS)
            jittery.sample((5 + 10 * (i % 2)) * MILLISECONDS)
        assert jittery.rto > stable.rto

    def test_backoff_doubles_and_caps(self):
        est = RttEstimator(initial_rto=100 * MILLISECONDS, rto_max=100 * SECONDS)
        base = est.rto
        est.on_timeout()
        assert est.rto == 2 * base
        est.on_timeout()
        assert est.rto == 4 * base
        for _ in range(20):
            est.on_timeout()
        assert est.rto == min(64 * base, 100 * SECONDS)

    def test_sample_resets_backoff(self):
        est = RttEstimator(initial_rto=100 * MILLISECONDS)
        est.on_timeout()
        est.sample(50 * MILLISECONDS)
        # Back-off cleared: rto reflects srtt math, not doubling.
        assert est.rto < 200 * MILLISECONDS

    def test_reset_backoff_explicit(self):
        est = RttEstimator(initial_rto=100 * MILLISECONDS)
        est.on_timeout()
        est.reset_backoff()
        assert est.rto == 100 * MILLISECONDS

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().sample(-1)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            RttEstimator(initial_rto=1, rto_min=10, rto_max=100)

    def test_samples_counter(self):
        est = RttEstimator()
        est.sample(1000)
        est.sample(1000)
        assert est.samples == 2


#: One estimator call: an RTT sample (ns), a timeout, or a back-off reset.
STEPS = st.one_of(
    st.tuples(st.just("sample"), st.integers(0, 20 * SECONDS)),
    st.tuples(st.just("on_timeout"), st.none()),
    st.tuples(st.just("reset_backoff"), st.none()),
)


@given(
    initial=st.integers(5 * MILLISECONDS, 3 * SECONDS),
    steps=st.lists(STEPS, max_size=40),
)
def test_rto_attribute_tracks_its_formula(initial, steps):
    """``rto`` is stored, not computed: every call that moves ``_rto`` or
    ``_backoff`` must leave it at ``min(rto_max, _rto * _backoff)``."""
    est = RttEstimator(initial_rto=initial, rto_max=3 * SECONDS)
    assert est.rto == initial
    for name, rtt in steps:
        if name == "sample":
            est.sample(rtt)
        else:
            getattr(est, name)()
        assert est.rto == min(est._rto_max, est._rto * est._backoff)
