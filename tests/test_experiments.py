import argparse
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import catsim.analytic
import catsim.cli
from catsim import CatStateKind, get_dense_cap, set_dense_cap, vanishing_noise_threshold
from catsim.cli import build_parser, main
from catsim.experiments import (
    CSV_HEADER,
    LOSS_CSV_HEADER,
    LossRecord,
    SweepRecord,
    ValidationReport,
    fig1_records,
    fig2_records,
    fig3_records,
    fig4_records,
    loss_threshold_records,
    p_grid,
    render_csv,
    render_json,
    sweep_records,
    validate_report,
    write_records,
)


class TestPGrid:
    def test_inclusive_endpoints(self):
        grid = p_grid(0.0, 0.6, 0.005)
        assert len(grid) == 121
        assert grid[0] == 0.0 and abs(grid[-1] - 0.6) <= 1e-12

    def test_narrow_window(self):
        grid = p_grid(0.0, 0.05, 0.0005)
        assert len(grid) == 101

    def test_bad_step(self):
        with pytest.raises(ValueError):
            p_grid(0.0, 1.0, 0.0)

    def test_rounding_past_p_max_is_clamped(self):
        # 0.09 + 13 * 0.07 rounds to 1.0000000000000002
        grid = p_grid(0.09, 1.0, 0.07)
        assert len(grid) == 14 and grid[-1] == 1.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        for args in ((bad, 1.0, 0.1), (0.0, bad, 0.1), (0.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                p_grid(*args)

    def test_step_below_float_range_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            p_grid(0.0, 1.0, 1e-320)

    def test_more_than_a_million_points_rejected(self):
        assert len(p_grid(0.0, 999_999.0, 1.0)) == 10**6
        for step in (1.0, 1e-12):
            with pytest.raises(ValueError, match="points"):
                p_grid(0.0, 1e6 * step, step)


@settings(max_examples=200, deadline=None)
@given(
    p_min=st.floats(0.0, 1.0),
    p_max=st.floats(0.0, 1.0),
    p_step=st.floats(1e-3, 1.0),
)
def test_p_grid_stays_in_bounds(p_min, p_max, p_step):
    p_min, p_max = min(p_min, p_max), max(p_min, p_max)
    grid = p_grid(p_min, p_max, p_step)
    assert grid[0] == p_min
    assert all(p_min <= p <= p_max for p in grid)
    assert all(b > a for a, b in zip(grid, grid[1:]))


@settings(max_examples=200, deadline=None)
@given(
    start=st.integers(0, 999),
    step=st.integers(1, 1000),
    k=st.integers(0, 1000),
)
def test_p_grid_keeps_an_endpoint_on_the_grid(start, step, k):
    # decimal inputs as typed on the command line: p_max = p_min + k * p_step exactly
    p_min, p_step, p_max = start / 1000, step / 1000, (start + k * step) / 1000
    grid = p_grid(p_min, p_max, p_step)
    assert len(grid) == k + 1
    assert abs(grid[-1] - p_max) <= 1e-12 and grid[-1] <= p_max


class TestRecords:
    def test_engine_validated(self):
        with pytest.raises(ValueError, match="engine"):
            SweepRecord("WCat", 4, 0, 0.0, 1.0, "guess")

    def test_entanglement_range_validated(self):
        with pytest.raises(ValueError, match="entanglement"):
            SweepRecord("WCat", 4, 0, 0.0, 1.5, "oracle")

    def test_csv_schema(self):
        recs = sweep_records(CatStateKind.W_CAT, 4, 1, [0.0, 0.05], engine="both")
        text = render_csv(recs)
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert text.endswith("\n") and "\r" not in text
        # analytic rows carry the eigenvalue pair, oracle rows leave it empty
        analytic = [l for l in lines[1:] if ",analytic," in l]
        oracle = [l for l in lines[1:] if ",oracle," in l]
        assert analytic and oracle
        assert all(l.endswith(",,") for l in oracle)
        assert all(not l.endswith(",,") for l in analytic)

    def test_float_formatting_is_12_significant_digits(self):
        rec = SweepRecord("WCat", 4, 0, 0.1 + 0.2, 1 / 3, "oracle")
        line = render_csv([rec]).split("\n")[1]
        assert line == "WCat,4,0,0.3,0.333333333333,oracle,,"

    def test_render_contract(self):
        # exact bytes of the renderers: a None lambda, l=None, l=2, 12-digit floats
        sweep = [
            SweepRecord("WCat", 8, 2, 0.1 + 0.2, 2 / 3, "analytic", -0.41234567890123456, -1.5e-17),
            SweepRecord("WCat", 1000, 100, 0.050390625, math.log2(1.9), "analytic", -0.45, None),
            SweepRecord("GhzCat", 9, 0, 0.005, 0.0, "oracle"),
        ]
        loss = [
            LossRecord("Psi1GState", None, 4, 1, "last_m", 0.12345678901234567, "entangled"),
            LossRecord("Psi3Concat", 2, 2, 2, "cross_block", 2.5e-13, "ppt"),
        ]
        assert render_csv(sweep) == (
            "state,N,m,p,entanglement,engine,lambda1,lambda2\n"
            "WCat,8,2,0.3,0.666666666667,analytic,-0.412345678901,-1.5e-17\n"
            "WCat,1000,100,0.050390625,0.925999418556,analytic,-0.45,\n"
            "GhzCat,9,0,0.005,0,oracle,,\n"
        )
        assert render_json(sweep) == (
            '[\n {\n  "state": "WCat",\n  "N": 8,\n  "m": 2,\n  "p": 0.3,\n'
            '  "entanglement": 0.666666666667,\n  "engine": "analytic",\n'
            '  "lambda1": -0.412345678901,\n  "lambda2": -1.5e-17\n },\n'
            ' {\n  "state": "WCat",\n  "N": 1000,\n  "m": 100,\n  "p": 0.050390625,\n'
            '  "entanglement": 0.925999418556,\n  "engine": "analytic",\n  "lambda1": -0.45\n },\n'
            ' {\n  "state": "GhzCat",\n  "N": 9,\n  "m": 0,\n  "p": 0.005,\n'
            '  "entanglement": 0.0,\n  "engine": "oracle"\n }\n]\n'
        )
        assert render_csv(loss) == (
            "state,l,N,m,lost,negativity,verdict\n"
            "Psi1GState,,4,1,last_m,0.123456789012,entangled\n"
            "Psi3Concat,2,2,2,cross_block,2.5e-13,ppt\n"
        )
        assert render_json(loss) == (
            '[\n {\n  "state": "Psi1GState",\n  "l": null,\n  "N": 4,\n  "m": 1,\n'
            '  "lost": "last_m",\n  "negativity": 0.123456789012,\n  "verdict": "entangled"\n },\n'
            ' {\n  "state": "Psi3Concat",\n  "l": 2,\n  "N": 2,\n  "m": 2,\n'
            '  "lost": "cross_block",\n  "negativity": 2.5e-13,\n  "verdict": "ppt"\n }\n]\n'
        )

    def test_json_matches_csv_fields(self):
        recs = sweep_records(CatStateKind.W_CAT, 4, 1, [0.05], engine="both")
        rows = json.loads(render_json(recs))
        assert {r["engine"] for r in rows} == {"oracle", "analytic"}
        for row in rows:
            assert set(row) <= {"state", "N", "m", "p", "entanglement", "engine", "lambda1", "lambda2"}
            if row["engine"] == "oracle":
                assert "lambda1" not in row

    def test_write_roundtrip(self, tmp_path):
        recs = sweep_records(CatStateKind.W_CAT, 3, 0, [0.0], engine="analytic")
        path = tmp_path / "out.csv"
        write_records(recs, str(path))
        write_records(recs, str(tmp_path / "out2.csv"))
        assert path.read_bytes() == (tmp_path / "out2.csv").read_bytes()

    def test_threaded_evaluation_is_deterministic(self):
        grid = p_grid(0.0, 0.2, 0.05)
        serial = render_csv(sweep_records(CatStateKind.W_CAT, 4, 0, grid, "both", threads=1))
        threaded = render_csv(sweep_records(CatStateKind.W_CAT, 4, 0, grid, "both", threads=4))
        assert serial == threaded


class TestSweep:
    def test_analytic_restricted_to_wcat(self):
        with pytest.raises(ValueError, match="analytic"):
            sweep_records(CatStateKind.GHZ_CAT, 4, 0, [0.0], engine="analytic")

    @pytest.mark.parametrize("engine", ["exact", "Oracle", ""])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="engine"):
            sweep_records(CatStateKind.W_CAT, 4, 0, [0.0], engine=engine)
        with pytest.raises(ValueError, match="engine"):
            vanishing_noise_threshold(CatStateKind.W_CAT, 4, 0, engine)

    def test_both_is_not_a_threshold_engine(self):
        with pytest.raises(ValueError, match="engine"):
            vanishing_noise_threshold(CatStateKind.W_CAT, 4, 0, "both")

    def test_psi3_oracle_sweep(self):
        recs = sweep_records(CatStateKind.PSI3_CONCAT, 1, 0, [0.0, 0.1], engine="oracle", l=2)
        assert len(recs) == 2
        assert abs(recs[0].entanglement - 1.0) <= 1e-10

    def test_rows_sorted(self):
        recs = sweep_records(CatStateKind.W_CAT, 4, 0, [0.1, 0.0, 0.05], engine="both")
        keys = [r.sort_key() for r in recs]
        assert keys == sorted(keys)


class TestFigureData:
    def test_fig1_matches_closed_form(self):
        recs = fig1_records([3, 4])
        assert len(recs) == 7
        for rec in recs:
            assert rec.engine == "analytic"
            assert abs(rec.entanglement - math.log2(2 - rec.m / rec.N)) <= 1e-12
        per_n = {}
        for rec in recs:
            per_n.setdefault(rec.N, []).append(rec.entanglement)
        for values in per_n.values():
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_fig1_headline_values(self):
        recs = {(r.N, r.m): r.entanglement for r in fig1_records([10])}
        assert recs[(10, 0)] == 1.0
        assert abs(recs[(10, 9)] - math.log2(1.1)) <= 1e-12

    def test_fig2_emits_three_rows_per_point(self):
        recs = fig2_records([3], [0.0, 0.1])
        assert len(recs) == 6
        ghz = [r for r in recs if r.state == "GhzCat"]
        w_or = [r for r in recs if r.state == "WCat" and r.engine == "oracle"]
        w_an = [r for r in recs if r.state == "WCat" and r.engine == "analytic"]
        assert len(ghz) == len(w_or) == len(w_an) == 2
        for rec in ghz + w_or + w_an:
            if rec.p == 0.0:
                assert abs(rec.entanglement - 1.0) <= 1e-10

    def test_fig3_is_analytic_surface(self):
        recs = fig3_records(N=5, m_max=2, grid=[0.0, 0.1])
        assert len(recs) == 6
        assert all(r.engine == "analytic" for r in recs)
        e_at = {(r.m, r.p): r.entanglement for r in recs}
        assert e_at[(0, 0.0)] == 1.0
        # non-increasing along each axis
        assert e_at[(1, 0.0)] < e_at[(0, 0.0)]
        assert e_at[(0, 0.1)] < e_at[(0, 0.0)]

    def test_fig1_and_fig3_build_only_closed_form_curves(self, monkeypatch):
        built, real = [], catsim.experiments.engine_curve

        def spy(name, *args, **kwargs):
            built.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(catsim.experiments, "engine_curve", spy)
        fig1_records([1, 2, 10])
        assert built == []
        fig3_records(N=10, m_max=8, grid=[0.0, 0.2])
        assert built == ["analytic"] * 9

    def test_fig4_records_thresholds_per_m(self):
        grid = [0.0, 0.01]
        recs, thresholds = fig4_records(N=100, m_max=2, grid=grid)
        assert set(thresholds) == {0, 1, 2}
        # one extra row per m at the bisected threshold
        assert len(recs) == 3 * (len(grid) + 1)
        for m, p_star in thresholds.items():
            assert any(r.m == m and r.p == p_star for r in recs)
            assert 0.0 < p_star < 1.0


class TestLossThresholds:
    def test_verdict_table(self):
        recs = loss_threshold_records()
        by_key = {(r.state, r.N, r.m, r.lost): r.verdict for r in recs}
        for N in (4, 5, 6, 7):
            assert by_key[("Psi1GState", N, 1, "last_m")] == "entangled"
            assert by_key[("Psi1GState", N, 2, "last_m")] == "entangled"
            assert by_key[("Psi1GState", N, 3, "last_m")] == "ppt"
            assert by_key[("Psi2", N, 1, "last_m")] == "entangled"
            assert by_key[("Psi2", N, 2, "last_m")] == "ppt"
            assert by_key[("GhzCat", N, 1, "last_m")] == "ppt"
        assert by_key[("Psi3Concat", 2, 2, "full_block")] == "ppt"
        assert by_key[("Psi3Concat", 1, 2, "full_block")] == "ppt"
        assert by_key[("Psi3Concat", 2, 2, "cross_block")] == "ppt"

    def test_csv_schema(self):
        text = render_csv(loss_threshold_records())
        assert text.split("\n")[0] == LOSS_CSV_HEADER


class TestValidate:
    def test_fast_battery_passes(self):
        report = validate_report(full=False)
        assert report.ok, "\n".join(report.lines())
        names = [c.name for c in report.checks]
        assert "two-eigenvalue truncation" in names
        trunc = next(c for c in report.checks if c.name == "two-eigenvalue truncation")
        assert "(N=8, m=1, p=0.1)" in trunc.detail

    def test_perturbed_coefficients_are_caught(self, monkeypatch):
        # a 1e-6 relative fault in one coefficient must trip the
        # oracle-equivalence check (tolerance 1e-9)
        original = catsim.analytic.coefficients

        def tampered(params):
            co = original(params)
            return type(co)(**{**co.__dict__, "b": co.b * (1 + 1e-6)})

        monkeypatch.setattr(catsim.analytic, "coefficients", tampered)
        report = validate_report(full=False)
        assert not report.ok

    @pytest.mark.parametrize("entry,measure", [((0, -1), "Hermiticity defect"), ((0, 0), "trace defect")])
    def test_map_breaking_an_invariant_is_caught(self, entry, measure, monkeypatch):
        # the maps build their results unchecked, so validate measures them
        original = catsim.noise._depolarize_inplace

        def skewed(mat, n, qubits, p):
            original(mat, n, qubits, p)
            mat[entry] += 1e-11  # above TOL.hermiticity, below the spectrum's 1e-10

        monkeypatch.setattr(catsim.noise, "_depolarize_inplace", skewed)
        check = catsim.experiments._check_state_invariants()
        assert not check.ok
        assert float(check.detail.split(f"{measure} ")[1].split(",")[0]) >= 1e-11


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the attributes read once ``_reads`` is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("_reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


def _subparsers() -> dict:
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestCli:
    def test_sweep_roundtrip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--state", "wcat", "--n", "4", "--m", "1",
            "--p-min", "0", "--p-max", "0.1", "--p-step", "0.05",
            "--engine", "both", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 8  # header + 3 points x 2 engines + trailing newline

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--state", "ghzcat", "--n", "3",
            "--p-min", "0", "--p-max", "0.05", "--p-step", "0.05",
            "--out", str(out), "--format", "json",
        ])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2 and rows[0]["state"] == "GhzCat"

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "sweep", "--state", "wcat", "--n", "3", "--p-min", "0",
            "--p-max", "0.1", "--p-step", "0.02", "--engine", "analytic",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thresholds_command(self, tmp_path):
        out = tmp_path / "thr.csv"
        assert main(["thresholds", "--out", str(out)]) == 0
        assert out.read_text().split("\n")[0] == LOSS_CSV_HEADER

    def test_fig1_command(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--n-list", "3", "4", "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 8

    def test_fig4_command_small(self, tmp_path):
        out = tmp_path / "fig4.csv"
        code = main([
            "fig4", "--n", "60", "--m-max", "1",
            "--p-min", "0", "--p-max", "0.01", "--p-step", "0.005", "--out", str(out),
        ])
        assert code == 0

    def test_capacity_exit_code(self, tmp_path):
        code = main([
            "sweep", "--state", "wcat", "--n", "14",
            "--p-min", "0", "--p-max", "0", "--p-step", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3

    def test_bad_semantics_exit_code(self, tmp_path):
        code = main([
            "sweep", "--state", "psi1", "--n", "4", "--engine", "analytic",
            "--p-min", "0", "--p-max", "0", "--p-step", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_analytic_family_error_precedes_dense_allocation(self, tmp_path):
        # 15 qubits would be a capacity error (exit 3); the closed form's
        # W-cat-only refusal must come first
        code = main([
            "sweep", "--state", "psi1", "--n", "14", "--engine", "both",
            "--p-min", "0", "--p-max", "0", "--p-step", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_tiny_step_exit_code(self, tmp_path):
        code = main([
            "sweep", "--state", "wcat", "--n", "4", "--p-step", "1e-12",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_bad_flag_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--state", "nosuch", "--n", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--dense-cap", "0"), ("--dense-cap", "-2"), ("--threads", "0"), ("--threads", "-3"),
    ])
    def test_counts_below_one_exit_code(self, flag, value, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--state", "wcat", "--n", "4", flag, value,
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert get_dense_cap() == 12

    @pytest.mark.parametrize("argv,flag", [
        (["fig4", "--n", "50", "--m-max", "-5"], "--m-max"),
        (["fig3", "--m-max", "-1"], "--m-max"),
        (["fig1", "--n-list", "0", "-2"], "--n-list"),
        (["fig2", "--n-list", "0"], "--n-list"),
        (["fig3", "--n", "0"], "--n"),
        (["fig4", "--n", "-3"], "--n"),
        (["sweep", "--state", "wcat", "--n", "0"], "--n"),
        (["sweep", "--state", "wcat", "--n", "3", "--m", "-1"], "--m"),
        (["sweep", "--state", "psi3", "--n", "2", "--l", "0"], "--l"),
    ])
    def test_counts_are_typed_where_they_enter(self, argv, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,limit", [
        (["fig3", "--m-max", "9"], 8),
        (["fig4", "--n", "50", "--m-max", "49"], 48),
    ])
    def test_m_max_beyond_the_closed_form_fails_before_any_point(
        self, argv, limit, tmp_path, capsys, monkeypatch
    ):
        built = []
        monkeypatch.setattr(catsim.experiments, "engine_curve",
                            lambda *args, **kwargs: built.append(args))
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert f"m_max must be at most N - 2 = {limit}" in capsys.readouterr().err
        assert built == []
        assert not (tmp_path / "x.csv").exists()

    def test_each_call_applies_its_log_level(self, tmp_path, caplog):
        root = logging.getLogger()
        before = root.level
        argv = ["fig2", "--n-list", "2", "--p-max", "0.1", "--p-step", "0.1",
                "--out", str(tmp_path / "x.csv")]
        for verbose in (False, True, False):
            caplog.clear()
            assert main(["-v", *argv] if verbose else argv) == 0
            debug = [r for r in caplog.records if r.levelno == logging.DEBUG]
            assert bool(debug) == verbose
            assert root.level == before

    @pytest.mark.parametrize("argv", [
        ["fig1", "--threads", "2"],
        ["fig4", "--threads", "2"],
        ["thresholds", "--threads", "2"],
        ["fig4", "--dense-cap", "3"],
        ["fig1", "--dense-cap", "3"],
        ["fig3", "--threads", "2"],
        ["fig3", "--dense-cap", "3"],
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_subparsers()))
    def test_every_declared_option_is_read(self, command, monkeypatch):
        for name in ("fig1_records", "fig2_records", "fig3_records", "loss_threshold_records",
                     "sweep_records", "write_records"):
            monkeypatch.setattr(catsim.experiments, name, lambda *args, **kwargs: [])
        monkeypatch.setattr(catsim.experiments, "fig4_records", lambda *args, **kwargs: ([], {0: 0.5}))
        monkeypatch.setattr(catsim.experiments, "validate_report", lambda **kwargs: ValidationReport(()))
        namespace, parser = _ReadRecorder(), build_parser()
        parse = parser.parse_args

        def parse_then_record(argv=None):
            args = parse(argv, namespace)
            args._reads = set()  # reads from here on are the command's
            return args

        parser.parse_args = parse_then_record
        monkeypatch.setattr(catsim.cli, "build_parser", lambda: parser)
        required = {"sweep": ["--state", "wcat", "--n", "3"]}.get(command, [])
        assert main([command, *required]) == 0
        declared = {action.dest for action in _subparsers()[command]._actions
                    if action.option_strings and action.dest != "help"}
        assert declared - vars(namespace)["_reads"] == set()

    def test_validate_dense_cap_below_one_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--fast", "--dense-cap", "0"])
        assert exc.value.code == 2

    def test_dense_cap_flag_applies(self, tmp_path):
        try:
            code = main([
                "sweep", "--state", "wcat", "--n", "4", "--dense-cap", "4",
                "--p-min", "0", "--p-max", "0", "--p-step", "1",
                "--out", str(tmp_path / "x.csv"),
            ])
        finally:
            set_dense_cap(12)
        assert code == 3  # 5 qubits exceed a cap of 4

    @pytest.mark.parametrize("cap,exit_code", [("5", 0), ("2", 3)])
    def test_dense_cap_flag_is_restored(self, cap, exit_code, tmp_path):
        try:
            code = main([
                "sweep", "--state", "wcat", "--n", "2", "--p-step", "0.5", "--dense-cap", cap,
                "--out", str(tmp_path / "x.csv"),
            ])
            assert code == exit_code  # 3 qubits fit a cap of 5, not a cap of 2
            assert get_dense_cap() == 12
        finally:
            set_dense_cap(12)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_grid_exit_code(self, value, tmp_path):
        code = main([
            "sweep", "--state", "wcat", "--n", "4", f"--p-max={value}",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_grid_rounding_past_one(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main([
            "sweep", "--state", "wcat", "--n", "4",
            "--p-min", "0.09", "--p-max", "1.0", "--p-step", "0.07", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 15  # header + 14 points

    def test_validate_fast_exit_zero(self, capsys):
        assert main(["validate", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out


_GRIDS = st.one_of(  # (p-min, p-max, p-step): at most 5 points, half of them valid
    st.sampled_from([("0", "0", "1"), ("0", "1", "0.5"), ("0.25", "0.5", "0.25"), ("0.5", "1", "0.5")]),
    st.sampled_from([("-0.5", "0.5", "0.5"), ("0", "1.5", "0.5"), ("-0.5", "1.5", "0.5"),
                     ("nan", "1", "0.5"), ("0", "nan", "1"), ("0", "1", "nan"), ("0", "1", "0"),
                     ("0", "1", "-0.5"), ("1", "0", "0.5")]),
)


def _count(lo: int, hi: int):
    return st.integers(lo, hi).map(str)


_DECLARED = {command: {opt for action in sub._actions for opt in action.option_strings}
             for command, sub in _subparsers().items()}


@st.composite
def _cli_argv(draw) -> list:
    """A command line of small bounded values: no dense state above 6 qubits,
    at most 5 grid points, and p bounds that may lie outside [0, 1] or be nan.
    Each command draws only the flags its subparser declares."""
    command = draw(st.sampled_from(["fig1", "fig2", "fig3", "fig4", "thresholds", "sweep"]))
    declared = _DECLARED[command]
    argv = [command]
    if command in ("fig1", "fig2"):
        argv += ["--n-list", *draw(st.lists(_count(0, 5), min_size=1, max_size=2))]
    elif command in ("fig3", "fig4"):
        n = draw(st.integers(0, 5 if command == "fig3" else 60))
        argv += ["--n", str(n), "--m-max", draw(_count(-1, n))]
    elif command == "sweep":
        state = draw(st.sampled_from(["wcat", "ghzcat", "psi1", "psi2", "psi3"]))
        n = draw(st.integers(0, 2 if state == "psi3" else 5))
        argv += ["--state", state, "--n", str(n), "--m", draw(_count(-1, n)),
                 "--engine", draw(st.sampled_from(["oracle", "analytic", "both"]))]
        if state == "psi3":  # l * (N + 1) qubits
            argv += ["--l", draw(_count(0, 2))]
    if "--p-step" in declared:
        p_min, p_max, p_step = draw(_GRIDS)
        argv += ["--p-min", p_min, "--p-max", p_max, "--p-step", p_step]
    if "--threads" in declared and draw(st.booleans()):
        argv += ["--threads", draw(st.sampled_from(["1", "2"]))]
    if command == "thresholds":  # its states are fixed at up to 8 qubits; the cap stops it at 6
        argv += ["--dense-cap", draw(_count(1, 6))]
    elif "--dense-cap" in declared and draw(st.booleans()):
        argv += ["--dense-cap", draw(_count(0, 6))]
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argv())
def test_cli_exits_0_2_or_3_and_never_crashes(argv, tmp_path):
    try:
        code = main(argv + ["--out", str(tmp_path / "fuzz.out")])
    except SystemExit as exc:  # argparse rejected the command line
        assert exc.code == 2, argv
    else:
        assert code in (0, 2, 3), argv
    assert get_dense_cap() == 12
