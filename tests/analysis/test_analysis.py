"""Tests for IR-drop reporting, comparison, and metering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.compare import compare_voltages
from repro.analysis.irdrop import (
    ascii_heatmap,
    ir_drop_field,
    ir_drop_report,
)
from repro.analysis.memory import MemoryMeter, nbytes_of
from repro.errors import ReproError


class TestIRDrop:
    def test_field(self):
        voltages = np.array([[1.8, 1.75], [1.79, 1.7]])
        drops = ir_drop_field(voltages, 1.8)
        assert drops[0, 0] == 0.0
        assert drops[1, 1] == pytest.approx(0.1)

    def test_report_statistics(self):
        voltages = np.full((2, 4, 4), 1.8)
        voltages[0, 2, 3] = 1.74  # worst node
        report = ir_drop_report(voltages, 1.8)
        assert report.worst == pytest.approx(0.06)
        assert report.worst_node == (0, 2, 3)
        assert report.per_tier_worst[0] == pytest.approx(0.06)
        assert report.per_tier_worst[1] == 0.0
        assert report.p99 <= report.worst

    def test_report_2d_field(self):
        report = ir_drop_report(np.full((3, 3), 1.7), 1.8)
        assert len(report.per_tier_worst) == 1

    def test_report_empty_rejected(self):
        with pytest.raises(ReproError):
            ir_drop_report(np.empty((0,)), 1.8)

    def test_gnd_net_bounce(self):
        """Ground net: nominal 0, bounce positive -- report handles it."""
        report = ir_drop_report(np.array([[0.0, 0.02]]), 0.0)
        assert report.worst == pytest.approx(0.02)

    def test_str_renders(self):
        report = ir_drop_report(np.full((2, 2, 2), 1.75), 1.8)
        assert "worst" in str(report)


class TestHeatmap:
    def test_renders_and_fits(self):
        field = np.random.default_rng(0).uniform(0, 0.05, (50, 120))
        art = ascii_heatmap(field, width=40, height=10)
        lines = art.splitlines()
        assert len(lines) == 11  # 10 rows + legend
        assert all(len(line) == 40 for line in lines[:10])

    def test_constant_field(self):
        art = ascii_heatmap(np.full((5, 5), 0.01), legend=False)
        assert set("".join(art.splitlines())) == {" "}

    def test_extremes_present(self):
        field = np.zeros((10, 10))
        field[5, 5] = 1.0
        art = ascii_heatmap(field, legend=False)
        assert "@" in art

    def test_rejects_non_2d(self):
        with pytest.raises(ReproError):
            ascii_heatmap(np.zeros((2, 2, 2)))


class TestCompareVoltages:
    def test_metrics(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.1, 3.0])
        report = compare_voltages(a, b)
        assert report.max_error == pytest.approx(0.1)
        assert report.worst_node == (1,)
        assert report.mean_error == pytest.approx(0.1 / 3)
        assert report.n_nodes == 3

    def test_budget_check(self):
        report = compare_voltages(np.array([1.0]), np.array([1.0004]))
        assert report.within(0.5e-3)
        assert not report.within(0.3e-3)

    def test_shape_mismatch(self):
        with pytest.raises(ReproError):
            compare_voltages(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            compare_voltages(np.empty(0), np.empty(0))

    def test_multidimensional_worst_node(self):
        a = np.zeros((2, 3, 4))
        b = a.copy()
        b[1, 2, 0] = 1e-3
        report = compare_voltages(a, b)
        assert report.worst_node == (1, 2, 0)


class TestMeters:
    def test_memory_meter_sees_numpy(self):
        with MemoryMeter() as meter:
            block = np.zeros(500_000)  # ~4 MB
            block[0] = 1.0
        assert meter.peak_bytes > 3_000_000

    def test_memory_meter_nested(self):
        with MemoryMeter() as outer:
            with MemoryMeter() as inner:
                np.zeros(200_000)
            np.zeros(100_000)
        assert inner.peak_bytes > 1_000_000
        assert outer.peak_bytes > 0

    def test_nbytes_of_arrays_and_sparse(self):
        import scipy.sparse as sp

        dense = np.zeros(1000)
        sparse = sp.eye(100, format="csr")
        expected_sparse = (
            sparse.data.nbytes + sparse.indices.nbytes + sparse.indptr.nbytes
        )
        assert nbytes_of(dense) == dense.nbytes
        assert nbytes_of(sparse) == expected_sparse
        assert nbytes_of([dense, {"a": sparse}]) == dense.nbytes + expected_sparse
        assert nbytes_of("not an array") == 0
