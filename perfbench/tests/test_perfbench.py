"""Tests of the benchmark's own arithmetic, inputs and output format.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import catalog, hpcg_mg, ilu_rotate, serve_open
from perfbench.common import Tally, at_pace
from perfbench.pace import MARGIN_S, REFERENCE_S, Pace
from perfbench.run import result
from perfbench.spans import (SpanRecorder, Span, covered, nearest_rank,
                             self_by_name, self_times, tail,
                             tail_percentile, unattributed_share)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, {})


# Span self-time arithmetic ------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(-1, 2), (8, 12)], 0, 10) == 4
    assert covered([], 0, 10) == 0
    assert covered([(3, 3), (4, 2)], 0, 10) == 0


def test_self_time_subtracts_children_once():
    spans = [_span(0, "root", 0.0, 10.0),
             _span(1, "a", 1.0, 4.0, 0),
             _span(2, "b", 3.0, 6.0, 0),       # overlaps a
             _span(3, "a.inner", 1.5, 2.5, 1)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    # a and b overlap on [3, 4]: each sibling keeps that second.
    by_name = self_by_name(spans)
    assert sum(by_name.values()) == pytest.approx(11.0)


def test_self_times_of_a_nested_tree_sum_to_the_root():
    spans = [_span(0, "root", 0.0, 8.0),
             _span(1, "x", 0.5, 7.5, 0),
             _span(2, "y", 1.0, 3.0, 1),
             _span(3, "y", 4.0, 7.0, 1),
             _span(4, "z", 5.0, 6.0, 3)]
    assert sum(self_times(spans).values()) == pytest.approx(8.0)
    # root keeps [0, 0.5] and [7.5, 8] of its own.
    assert unattributed_share(spans, "root", {"x", "y", "z"}) == \
        pytest.approx(1.0 / 8.0)
    # x's own 2 s are not reported by any layer metric.
    assert unattributed_share(spans, "root", {"y", "z"}) == \
        pytest.approx(3.0 / 8.0)


def test_an_unmapped_child_span_trips_the_unattributed_gate():
    spans = [_span(0, "bench.solve", 0.0, 10.0),
             _span(1, "solvers.pcg", 0.0, 10.0, 0),
             _span(2, "solvers.spmv", 0.0, 6.0, 1),
             _span(3, "extra.wrapper", 6.0, 8.0, 1),
             _span(4, "solvers.spmv", 6.5, 7.0, 3),
             _span(5, "solvers.spmv", 0.0, 1.0)]      # outside any root
    layers = hpcg_mg.LAYER_SPANS
    share = unattributed_share(spans, "bench.solve", layers)
    assert share == pytest.approx(1.5 / 10.0)
    tally = Tally()
    tally.attempted = 1
    assert not result({"bench.unattributed_share": share}, tally,
                      True)["correct"]
    mapped = [sp for sp in spans if sp.name != "extra.wrapper"]
    assert unattributed_share(mapped, "bench.solve", layers) == 0.0


def test_serve_request_roots_count_spans_outside_the_layers():
    rec = SpanRecorder()
    service = rec.record("serve.service", 2.0, 8.0, request=0)
    rec.record("serve.cache.lookup", 2.0, 3.0, service.id)
    rec.record("serve.batch.lower.k1", 3.0, 6.0, service.id)
    out = {"due": [0.0], "s0": [1.0], "s1": [1.5], "done": [10.0]}
    serve_open.request_spans(rec, out)
    assert unattributed_share(rec.spans, "bench.request",
                              serve_open.LAYER_SPANS) == 0.0
    rec.record("serve.unknown", 6.0, 7.0, service.id)
    assert unattributed_share(rec.spans, "bench.request",
                              serve_open.LAYER_SPANS) == \
        pytest.approx(0.1)


def test_recorder_nests_per_thread_and_records_intervals():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("outer"):
        with rec.span("inner", k=8):
            pass
    extra = rec.record("later", 10.0, 12.0)
    outer, = rec.named("outer")
    inner, = rec.named("inner")
    assert inner.parent == outer.id and outer.parent is None
    assert inner.attrs == {"k": 8}
    assert (outer.start, outer.end, inner.start, inner.end) == (0, 3, 1, 2)
    assert extra.duration == 2.0


# The tail percentile rule --------------------------------------------------

@pytest.mark.parametrize("n, p", [(1, 50.0), (19, 50.0), (20, 50.0),
                                  (39, 50.0), (40, 75.0), (99, 75.0),
                                  (100, 90.0), (199, 90.0), (200, 95.0),
                                  (999, 95.0), (1000, 99.0),
                                  (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p
    if p > 50.0:
        assert n * (100 - p) >= 1000 - 1e-6


@pytest.mark.parametrize("n", [40, 57, 100, 150, 200, 1234])
def test_tail_value_has_at_least_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    p, v = tail(values)
    assert p > 50.0
    assert sum(x > v for x in values) >= 10
    assert v == nearest_rank(values, p)


def test_short_runs_report_the_median_as_tail():
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


# Seed determinism of the generated inputs -----------------------------------

def test_hpcg_inputs_depend_only_on_the_seed():
    a, b, c = (hpcg_mg.make_inputs(s) for s in (7, 7, 8))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def test_ilu_snapshots_depend_only_on_the_seed_and_are_spd_shaped():
    (sa, _, ra), (sb, _, rb), (sc, _, _) = (ilu_rotate.make_inputs(s)
                                           for s in (3, 3, 4))
    assert all(np.array_equal(x, y) for x, y in zip(sa + ra, sb + rb))
    assert not np.array_equal(sa[0], sc[0])
    A = ilu_rotate.make_inputs(3)[1][0]
    dense = np.zeros(A.shape)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    dense[rows, A.indices] = A.data
    assert np.array_equal(dense, dense.T)
    off = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
    assert np.all(np.diag(dense) > off)


def test_serve_schedule_is_fixed_and_its_data_depend_on_the_seed():
    a, b, c = (serve_open.make_schedule(s, 4.0) for s in (5, 5, 6))
    assert len(a) == len(b) == len(c) == len(serve_open.DECK)
    for x, y, z in zip(a, b, c):
        assert (x.due, x.structure, x.op, x.k, x.snapshot) == \
            (y.due, y.structure, y.op, y.k, y.snapshot) == \
            (z.due, z.structure, z.op, z.k, z.snapshot)
        assert np.array_equal(x.rhs, y.rhs)
        assert not np.array_equal(x.rhs, z.rhs)
        assert x.k == 1 or x.rhs.flags.f_contiguous
    assert sorted((x.structure, x.op, x.k) for x in a) == \
        sorted(serve_open.DECK)
    sa, sb, sc = (serve_open.make_snapshots(s) for s in (5, 5, 6))
    assert np.array_equal(sa[2][1], sb[2][1])
    assert not np.array_equal(sa[2][1], sc[2][1])


# Host pace ----------------------------------------------------------------

def _pace(starts, times):
    pace = Pace.__new__(Pace)
    pace.starts, pace.times = list(starts), list(times)
    return pace


def test_pace_factor_reads_the_units_around_the_interval():
    # Units at t=0..9 s: slow (2x the reference) before t=5, at it after.
    pace = _pace(range(10), [2 * REFERENCE_S] * 5 + [REFERENCE_S] * 5)
    assert pace.factor(7.0 + MARGIN_S, 8.0) == pytest.approx(1.0)
    assert pace.factor(1.0 + MARGIN_S, 2.0) == pytest.approx(0.5)
    # Units 3..6 lie within the margin of [4, 5]: two slow, two not.
    assert pace.factor(4.0, 5.0) == pytest.approx(
        REFERENCE_S * 4 / (6 * REFERENCE_S))
    # An interval with no units near it falls back to all of them.
    assert pace.factor(100.0, 101.0) == pytest.approx(
        REFERENCE_S * 10 / (15 * REFERENCE_S))
    assert _pace([], []).factor(0.0, 1.0) == 1.0


def test_scaled_intervals_are_lengths_times_their_factor():
    pace = _pace([0.0, 10.0], [2 * REFERENCE_S, REFERENCE_S])
    assert pace.scaled([(0.0, 0.5), (9.5, 10.0)]) == pytest.approx(
        [0.25, 0.5])


def test_at_pace_scales_times_and_rates_only():
    out = at_pace({"multigrid.vcycle_s": 2.0, "bench.generator_lag_ms": 4.0,
                   "serve.batch.lower.k1.gbps": 3.0,
                   "serve.cache.hit_ratio": 0.5, "formats.n_tiles": 7,
                   "bench.pace_factor": 0.5}, 0.5)
    assert out == {"multigrid.vcycle_s": 1.0, "bench.generator_lag_ms": 2.0,
                   "serve.batch.lower.k1.gbps": 6.0,
                   "serve.cache.hit_ratio": 0.5, "formats.n_tiles": 7,
                   "bench.pace_factor": 0.5}


def test_pace_fills_run_whole_units_and_respect_deadlines():
    pace = Pace()
    assert np.isfinite(pace.unit())
    pace.fill(0.0)
    assert len(pace.times) == 1
    n = len(pace.times)
    pace.fill_until(0.0)
    assert len(pace.times) == n
    assert pace.starts == sorted(pace.starts)


# Output names and units ---------------------------------------------------

def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_catalogue():
    doc = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(catalog.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(catalog.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(catalog.WORKLOADS)
    names = [m[0] for m in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    assert "setup_s" in names


@pytest.mark.parametrize("traced", [False, True])
def test_result_prints_every_metric_with_its_unit(traced):
    tally = Tally()
    tally.attempted = 4
    out = result({"solve_s": 1.5, "serve.cache.hit_ratio": 0.5}, tally,
                 traced)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    want = catalog.PER_LAYER if traced else catalog.END_TO_END
    assert list(out["metrics"]) == [m[0] for m in want]
    for name, unit, *_ in want:
        assert out["metrics"][name]["unit"] == unit
    assert out["correct"] and out["attempted"] == 4
    json.dumps(out)


def test_result_fails_the_unattributed_gate():
    tally = Tally()
    tally.attempted = 1
    out = result({"bench.unattributed_share": 0.2}, tally, True)
    assert not out["correct"]


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hpcg_mg",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
