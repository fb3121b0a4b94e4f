"""The cluster timing model: shape, monotonicity, calibration."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import ClusterTimingModel, paper_cluster
from repro.errors import EngineError


class TestShape:
    def test_overhead_floor(self):
        model = ClusterTimingModel(job_overhead_s=60.0)
        assert model.job_seconds(0.0, 0.0, 10) == 60.0

    def test_more_instances_never_slower(self):
        model = paper_cluster()
        t1 = model.job_hours(10.0, 1000, 1)
        t5 = model.job_hours(10.0, 1000, 5)
        t20 = model.job_hours(10.0, 1000, 20)
        assert t20 < t5 < t1

    def test_scale_out_is_sublinear(self):
        # Doubling instances less than halves the data-dependent part.
        model = ClusterTimingModel(job_overhead_s=0.0, parallel_efficiency=0.9)
        t1 = model.job_seconds(10.0, 0, 1)
        t2 = model.job_seconds(10.0, 0, 2)
        assert t2 > t1 / 2

    def test_perfect_efficiency_is_linear(self):
        model = ClusterTimingModel(job_overhead_s=0.0, parallel_efficiency=1.0)
        t1 = model.job_seconds(10.0, 0, 1)
        t4 = model.job_seconds(10.0, 0, 4)
        assert t4 == pytest.approx(t1 / 4)

    def test_compute_units_scale_up(self):
        model = ClusterTimingModel(job_overhead_s=0.0)
        small = model.job_seconds(10.0, 0, 1, compute_units=1.0)
        xlarge = model.job_seconds(10.0, 0, 1, compute_units=8.0)
        assert xlarge == pytest.approx(small / 8)

    def test_groups_add_reduce_time(self):
        model = paper_cluster()
        few = model.job_seconds(1.0, 10, 5)
        many = model.job_seconds(1.0, 10_000_000, 5)
        assert many > few


class TestCalibration:
    def test_ten_gb_scan_lands_near_paper_regime(self):
        # paper_cluster's docstring gives the calibration: ~0.19-0.20 h
        # per 10 GB aggregate on the paper's five instances.
        hours = paper_cluster().job_hours(10.0, 150, 5, 1.0)
        assert 0.17 <= hours <= 0.22

    def test_three_query_workload_near_mv2_limit(self):
        # The paper's m=3 time limit is 0.57 h.
        model = paper_cluster()
        total = 3 * model.job_hours(10.0, 1000, 5)
        assert 0.5 <= total <= 0.65


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(EngineError):
            ClusterTimingModel(scan_mb_per_s_per_cu=0)
        with pytest.raises(EngineError):
            ClusterTimingModel(job_overhead_s=-1)
        with pytest.raises(EngineError):
            ClusterTimingModel(parallel_efficiency=0)
        with pytest.raises(EngineError):
            ClusterTimingModel(parallel_efficiency=1.5)

    def test_bad_job_inputs_rejected(self):
        model = paper_cluster()
        with pytest.raises(EngineError):
            model.job_seconds(-1, 0, 1)
        with pytest.raises(EngineError):
            model.job_seconds(1, -1, 1)
        with pytest.raises(EngineError):
            model.job_seconds(1, 0, 0)
        with pytest.raises(EngineError):
            model.job_seconds(1, 0, 1, compute_units=0)


class TestProperties:
    sizes = st.floats(min_value=0, max_value=1e4, allow_nan=False)
    groups = st.floats(min_value=0, max_value=1e8, allow_nan=False)
    fleet = st.integers(min_value=1, max_value=100)

    @given(gb=sizes, g=groups, n=fleet)
    def test_time_at_least_overhead(self, gb, g, n):
        model = paper_cluster()
        assert model.job_seconds(gb, g, n) >= model.job_overhead_s

    @given(gb1=sizes, gb2=sizes, g=groups, n=fleet)
    def test_monotone_in_input_size(self, gb1, gb2, g, n):
        model = paper_cluster()
        lo, hi = sorted([gb1, gb2])
        assert model.job_seconds(lo, g, n) <= model.job_seconds(hi, g, n)
