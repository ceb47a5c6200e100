"""Tests of the benchmark's own parts: span accounting, tracing and seeding.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import math
import random
from pathlib import Path

import pytest

import reference
import run
from spans import Recorder, Span, coverage, self_times
from tracing import Tracer
from workloads import FIG2_GRID, FIG4_GRID_POINTS, WORKLOADS, ghz_negativity, ghz_threshold


@pytest.fixture(scope="module")
def cs():
    return run.import_catsim()


def spans(*rows):
    return [Span(sid, name, start, end, parent, 0) for sid, name, start, end, parent in rows]


class TestSelfTimes:
    def test_nested(self):
        own = self_times(spans((0, "a", 0.0, 10.0, -1), (1, "b", 2.0, 5.0, 0), (2, "c", 3.0, 4.0, 1)))
        assert own == pytest.approx({0: 7.0, 1: 2.0, 2: 1.0})

    def test_siblings(self):
        own = self_times(spans((0, "a", 0.0, 10.0, -1), (1, "b", 1.0, 3.0, 0), (2, "c", 3.0, 6.0, 0)))
        assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0})

    def test_overlapping_siblings_count_once(self):
        own = self_times(spans((0, "a", 0.0, 10.0, -1), (1, "b", 1.0, 4.0, 0), (2, "c", 3.0, 6.0, 0)))
        assert own[0] == pytest.approx(5.0)

    def test_zero_length(self):
        own = self_times(spans((0, "a", 0.0, 1.0, -1), (1, "b", 0.5, 0.5, 0), (2, "c", 2.0, 2.0, -1)))
        assert own == {0: 1.0, 1: 0.0, 2: 0.0}

    def test_children_clipped_to_parent(self):
        assert coverage([(-1.0, 0.5), (0.75, 3.0)], 0.0, 1.0) == pytest.approx(0.75)


class TestRecorder:
    def test_folds_each_op(self, tmp_path):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 11.0, 12.0])
        rec = Recorder(clock=lambda: next(ticks), keep=3)
        rec.op = 0
        outer = rec.begin("outer")
        inner = rec.begin("inner")
        rec.end(inner)
        inner = rec.begin("inner")
        rec.end(inner)
        rec.end(outer)
        rec.close_op()
        assert rec.calls == {"outer": 1, "inner": 2}
        assert rec.self_s["outer"] == pytest.approx(10.0 - 3.0)
        assert rec.self_s["inner"] == pytest.approx(3.0)
        rec.op = 1
        rec.end(rec.begin("outer"))
        rec.close_op()
        assert (len(rec.kept), rec.dropped) == (3, 1)
        rec.write(tmp_path / "spans.csv")
        lines = (tmp_path / "spans.csv").read_text().splitlines()
        assert lines[0] == "# spans kept 3, dropped 1"
        assert len(lines) == 5

    def test_out_of_order_end_raises(self):
        rec = Recorder()
        outer = rec.begin("outer")
        rec.begin("inner")
        with pytest.raises(RuntimeError):
            rec.end(outer)

    def test_open_span_at_op_end_raises(self):
        rec = Recorder()
        rec.begin("outer")
        with pytest.raises(RuntimeError):
            rec.close_op()


def test_tracer_patches_every_binding_and_restores(cs):
    rec = Recorder()
    tracer = Tracer(cs, rec)
    original = cs.core.hermitian_spectrum
    rho = cs.to_density(cs.w_cat(3))
    plain = cs.log_negativity(rho, cs.Bipartition.micro_macro(4))
    tracer.install()
    try:
        assert cs.entanglement.hermitian_spectrum is not original
        traced = cs.log_negativity(cs.to_density(cs.w_cat(3)), cs.Bipartition.micro_macro(4))
    finally:
        tracer.uninstall()
    rec.close_op()
    assert cs.entanglement.hermitian_spectrum is original
    assert cs.hermitian_spectrum is original
    assert traced == plain
    for name in ("entanglement.log_negativity", "entanglement.negativity", "core.partial_transpose",
                 "core.hermitian_spectrum", "core.to_density", "cats.w_cat", "core.DensityMatrix"):
        assert rec.calls[name] >= 1, name
    assert rec.maxima["core.hermitian_spectrum.dim_max"] == 16
    assert rec.counts["core.hermitian_spectrum.work_dim3"] == 16**3


def test_grids_match_catsim(cs):
    assert FIG2_GRID == cs.experiments.p_grid(0.0, 0.6, 0.005)
    assert FIG4_GRID_POINTS == len(cs.experiments.p_grid(0.0, cs.experiments.FIG4_P_MAX,
                                                         cs.experiments.FIG4_P_STEP))


@pytest.mark.parametrize("p", [0.0, 0.05, 0.2, 0.45, 0.9])
def test_ghz_reference_matches_dense(cs, p):
    n = 5
    rho = cs.depolarize_all(cs.to_density(cs.ghz_cat(n - 1)), p)
    assert cs.negativity(rho, cs.Bipartition.micro_macro(n)) == pytest.approx(
        ghz_negativity(n, p), abs=1e-12)


def test_ghz_threshold_is_the_closed_form_root():
    p = ghz_threshold(9)
    assert ghz_negativity(9, p) > 0.0 and ghz_negativity(9, p + 1e-12) == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(name):
    wl = WORKLOADS[name]

    def draw(seed):
        rng = random.Random(seed)
        return [wl.round(rng) for _ in range(8)]

    assert draw(11) == draw(11)
    assert draw(11) != draw(12)


def test_rounds_keep_the_mix():
    rng = random.Random(5)
    for _ in range(20):
        cap = WORKLOADS["dense-cap"].round(rng)
        assert sorted(i[:3] for i in cap) == sorted(WORKLOADS["dense-cap"].MIX)
        (pair,) = WORKLOADS["closed-form"].round(rng)
        assert sum(pair) == 3500


def test_closed_form_output_repeats(cs, tmp_path):
    wl = WORKLOADS["closed-form"]
    inp = (500, 520)
    outs = [wl.finish(inp, wl.run(cs, inp, tmp_path), tmp_path) for _ in range(2)]
    assert wl.render(inp, outs[0]) == wl.render(inp, outs[1])
    assert wl.check(cs, inp, outs[0]) == []
    bad = [(0, outs[0][0][1], outs[0][0][2]), (1, "", "")]
    assert wl.check(cs, inp, bad) == ["N=520: fig4 exited 1"]


class TestSpeedProbe:
    def test_burst_keeps_median_and_around_averages_neighbours(self):
        # start, three calls (start and end each), then the time check
        ticks = iter([0.0, 0.0, 1.0, 1.0, 4.0, 4.0, 6.0, 6.0,  # burst 0: calls of 1, 3 and 2 s
                      10.0, 10.0, 11.0, 11.0, 12.0, 12.0, 13.0, 13.0])  # burst 1: 1 s each
        probe = reference.SpeedProbe(lambda: None, clock=lambda: next(ticks))
        assert probe.burst(0.0) == 2.0
        assert probe.burst(0.0) == 1.0
        assert probe.around(0) == 1.5

    @pytest.mark.parametrize("name", sorted(reference.KERNELS))
    def test_kernels_are_fixed_work(self, name):
        kernel = reference.KERNELS[name]
        assert kernel() == kernel()
        assert name in reference.NOMINAL_S

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_names_a_kernel(self, name):
        assert WORKLOADS[name].REFERENCE in reference.KERNELS


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert math.isclose(max(m["bound"] for m in spec["end_to_end"]),
                        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"))
