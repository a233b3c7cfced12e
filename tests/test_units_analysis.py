"""Value pins for the quantity conventions of :mod:`repro.core.units`.

The seconds<->milliseconds conversion sites (latency model, saturated
node fallback) are pinned by their corrected *values*: a conversion
dropped or applied twice moves a reported tail latency by 1000x, which
these tests catch directly.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.units import to_millis, to_seconds
from repro.workloads import (
    mm1_mean_sojourn,
    mm1_sojourn_quantile,
    mmc_mean_sojourn,
    mmc_sojourn_quantile,
    p95_latency_ms,
    stage_rates,
)

from conftest import make_lc, make_node


class TestTimeConversionRegressions:
    @given(ms=st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_exact_for_sane_latencies(self, ms):
        assert to_millis(to_seconds(ms)) == pytest.approx(ms, rel=1e-12, abs=1e-12)

    def test_p95_latency_is_exactly_thousand_times_the_seconds_model(self):
        # Single-stage case (serial_fraction = 0): the tandem model
        # degenerates to the M/M/c quantile, and p95_latency_ms must be
        # that quantity in *milliseconds* — the historical failure mode
        # is returning raw seconds (1000x too small).
        workload = make_lc(serial_fraction=0.0)
        shares = {"llc_ways": 1.0, "membw_units": 1.0}
        qps, cores = 800.0, 4
        mu_serial, mu_parallel = stage_rates(workload, shares, 0.0)
        assert math.isinf(mu_serial)
        expected_s = mmc_sojourn_quantile(qps, mu_parallel, cores, 0.95)
        got_ms = p95_latency_ms(workload, qps, cores, shares)
        assert got_ms == pytest.approx(1000.0 * expected_s)
        # Sanity: a sub-second tail reported in ms is > its seconds value.
        assert got_ms > expected_s

    def test_p95_latency_two_stage_composition_in_millis(self):
        workload = make_lc(serial_fraction=0.3)
        shares = {"llc_ways": 1.0, "membw_units": 1.0}
        qps, cores = 500.0, 4
        mu_serial, mu_parallel = stage_rates(workload, shares, 0.0)
        q_serial = mm1_sojourn_quantile(qps, mu_serial, 0.95)
        q_parallel = mmc_sojourn_quantile(qps, mu_parallel, cores, 0.95)
        m_serial = mm1_mean_sojourn(qps, mu_serial)
        m_parallel = mmc_mean_sojourn(qps, mu_parallel, cores)
        expected_s = max(q_serial + m_parallel, q_parallel + m_serial)
        assert p95_latency_ms(workload, qps, cores, shares) == pytest.approx(
            1000.0 * expected_s
        )

    def test_saturated_node_fallback_reports_milliseconds(self, mini_server):
        # When the queue saturates, the node substitutes a finite
        # window-scaled latency: 1000.0 * window_s * overload.  The
        # 1000.0 is the s->ms conversion, so the reported p95 must
        # scale linearly with the observation window and sit in the
        # millisecond range (>= 1000 * window_s), never the raw
        # seconds range.
        readings = {}
        for window_s in (2.0, 4.0):
            node = make_node(
                mini_server, lc_loads=(1.0,), n_bg=2, window_s=window_s
            )
            config = node.space.equal_partition()
            observation = node.true_performance(config)
            p95 = observation.job("lc0").p95_ms
            assert math.isfinite(p95)
            readings[window_s] = p95
        assert readings[4.0] == pytest.approx(2.0 * readings[2.0])
        assert readings[2.0] >= 1000.0 * 2.0
