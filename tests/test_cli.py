import ast
import collections
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNCONVERGED
from steerability import absolute, checks, cli, families, linalg, sampling, states
from steerability.cli import main

DATA = Path(__file__).parent / "data"

# LAYERS and KEPT of the benchmark's tracer, read from its source without importing it.
_TRACER = {
    node.targets[0].id: ast.literal_eval(node.value)
    for node in ast.parse((Path(__file__).parents[1] / "benchmarks" / "tracer.py").read_text()).body
    if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("LAYERS", "KEPT")
}


def _tracer_names():
    layers = [f"{module}.{name}" for module, names in _TRACER["LAYERS"].items() for name in names]
    return layers + list(_TRACER["KEPT"])


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def matrix_record(rho):
    return {
        "format": "matrix",
        "matrix": [[[z.real, z.imag] for z in row] for row in np.asarray(rho, dtype=complex)],
    }


def parse_report(text):
    out = {}
    for line in text.splitlines():
        stripped = line.strip()
        if ":" in stripped and not line.startswith("#"):
            key, _, value = stripped.partition(":")
            out[key] = value.strip()
    return out


class TestAnalyze:
    def test_werner_family_report(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "w.json",
            {"format": "family", "family": "werner", "parameters": {"p": 0.8}},
        )
        assert main(["analyze", "--in", path]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["f3_max"]) == pytest.approx(np.sqrt(3) * 0.8, abs=1e-9)
        assert report["in_aus3"] == "false"
        assert report["teleportation_useful"] == "true"
        assert float(report["witness_expectation"]) == pytest.approx(
            1 - np.sqrt(3) * 0.8, abs=1e-9
        )

    def test_maximally_mixed_matrix_report(self, tmp_path, capsys):
        path = write_json(tmp_path / "mm.json", matrix_record(np.eye(4) / 4))
        assert main(["analyze", "--in", path]) == 0
        report = parse_report(capsys.readouterr().out)
        for key in ("f2_max", "f3_max", "f3_global_max", "N", "M"):
            assert float(report[key]) == 0.0
        assert report["in_aus3"] == "true"
        assert "witness_expectation" not in report

    def test_bloch_record(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "b.json",
            {
                "format": "bloch",
                "a": [0, 0, 0],
                "b": [0, 0, 0],
                "T": (-0.5 * np.eye(3)).tolist(),
            },
        )
        assert main(["analyze", "--in", path]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["f3_max"]) == pytest.approx(np.sqrt(3) * 0.5, abs=1e-9)

    def test_byte_identical_reports(self, tmp_path):
        path = write_json(
            tmp_path / "g.json",
            {
                "format": "family",
                "family": "gisin",
                "parameters": {"lambda": 0.8, "theta": 0.3},
            },
        )
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert main(["analyze", "--in", path, "--out", str(out1)]) == 0
        assert main(["analyze", "--in", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", "--in", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["analyze", "--in", str(tmp_path / "absent.json")]) == 2

    def test_two_representations_exit_2(self, tmp_path):
        record = matrix_record(np.eye(4) / 4)
        record["a"] = [0, 0, 0]
        assert main(["analyze", "--in", write_json(tmp_path / "two.json", record)]) == 2

    def test_invalid_state_exits_3(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "neg.json", matrix_record(np.diag([1.5, -0.5, 0, 0]))
        )
        assert main(["analyze", "--in", path]) == 3
        assert "NotPositive" in capsys.readouterr().err

    def test_family_out_of_range_exits_3(self, tmp_path):
        path = write_json(
            tmp_path / "w15.json",
            {"format": "family", "family": "werner", "parameters": {"p": 1.5}},
        )
        assert main(["analyze", "--in", path]) == 3

    @pytest.mark.parametrize("excess", [2e-10, 5e-10, 8e-10])
    def test_just_above_half_purity_reports_no_witness(self, tmp_path, capsys, excess):
        p = float(np.sqrt((1 + 4 * excess) / 3))  # Werner purity (1 + 3 p^2) / 4
        path = write_json(
            tmp_path / "edge.json",
            {"format": "family", "family": "werner", "parameters": {"p": p}},
        )
        assert main(["analyze", "--in", path]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["in_aus3"] == "true"
        assert "witness_expectation" not in report

    @pytest.mark.parametrize("name", sorted(f.stem for f in (DATA / "analyze").glob("*.json")))
    def test_report_is_pinned(self, name, monkeypatch, capsys):
        # nine of the fourteen states are activatable, so their witness_expectation
        # lines are pinned too; bloch_on_every_threshold has F3 = N = M = 1 exactly, so
        # its verdicts pin each threshold's strict or non-strict side
        monkeypatch.chdir(DATA / "analyze")
        assert main(["analyze", "--in", f"{name}.json"]) == 0
        assert capsys.readouterr().out == (DATA / "analyze" / f"{name}.txt").read_text()

    def test_near_hermitian_matrix_reports_in_a_fresh_process(self):
        # 0.9|++><++| + 0.1 I/4 with its strict upper triangle raised by 0.99 HERM_TOL: it
        # is read as its Hermitian part, so every purity route sees the same matrix
        fresh = subprocess.run(
            [sys.executable, "-m", "steerability.cli", "analyze", "--in", "matrix_near_hermitian.json"],
            cwd=DATA / "analyze", env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            capture_output=True, text=True, timeout=60,
        )
        assert (fresh.returncode, fresh.stderr) == (0, "")
        assert fresh.stdout == (DATA / "analyze" / "matrix_near_hermitian.txt").read_text()

    @pytest.mark.parametrize("name, activatable", [("werner_safe", False), ("gisin_activatable", True)])
    def test_one_computation_per_shared_input(self, name, activatable, monkeypatch, capsys):
        # validate makes one 4x4 eigensolve and the report one more, which the witness
        # reuses; the report's one SVD of T is one 3x3 eigvalsh.  The witness adds a Bloch
        # form and a 3x3 eigh of the canonical state (optimal_directions).
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(a, *args, **kwargs):
                calls[name, np.shape(a)[-1]] += 1
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(states, "to_bloch", counting("to_bloch", states.to_bloch))
        monkeypatch.chdir(DATA / "analyze")
        assert main(["analyze", "--in", f"{name}.json"]) == 0
        assert capsys.readouterr().out == (DATA / "analyze" / f"{name}.txt").read_text()
        expected = {("eigh", 4): 2, ("eigvalsh", 3): 1, ("to_bloch", 4): 1}
        if activatable:
            expected.update({("to_bloch", 4): 2, ("eigh", 3): 1})
        assert calls == expected

    def test_state_at_the_tolerance_edge(self, tmp_path, capsys):
        # the four purity routes straddle 1/2 + BOUNDARY_TOL by one ulp here
        path = write_json(
            tmp_path / "edge.json",
            {"format": "family", "family": "gisin",
             "parameters": {"lambda": 2 / 3 + 1e-9, "theta": 0.1}},
        )
        assert main(["analyze", "--in", path]) == 0
        report = parse_report(capsys.readouterr().out)
        assert ("witness_expectation" in report) == (report["in_aus3"] == "false")


class TestScan:
    def test_werner_curve_file(self, tmp_path):
        out = tmp_path / "werner.csv"
        code = main(
            ["scan", "--family", "werner", "--from", "0", "--to", "1",
             "--step", "0.01", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "param,f3_global_max_minus_1,in_aus3"
        threshold = float(lines[-1].split(":")[1])
        assert abs(threshold - 1 / np.sqrt(3)) < 1e-9
        # parses back losslessly and reproduces the verdicts
        rows = [line.split(",") for line in lines[3:-1]]
        assert len(rows) == 101
        for param, excess, flag in rows:
            verdict = absolute.decide_aus3(families.werner(float(param)))
            assert float(excess) == pytest.approx(verdict.f3_global_max - 1, abs=1e-9)
            assert flag == str(verdict.in_aus3).lower()

    def test_gisin_threshold(self, tmp_path):
        out = tmp_path / "gisin.csv"
        assert main(
            ["scan", "--family", "gisin", "--from", "0", "--to", "1",
             "--step", "0.01", "--out", str(out)]
        ) == 0
        threshold = float(out.read_text().splitlines()[-1].split(":")[1])
        assert abs(threshold - 2 / 3) < 1e-9

    @pytest.mark.parametrize("family", ["werner", "gisin"])
    def test_report_is_pinned(self, family, capsys):
        # recorded from the per-state scan; a change that moves one bit of a row fails here
        argv = ["scan", "--family", family, "--from", "0", "--to", "1", "--step", "0.01"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (DATA / f"scan_{family}_step_0.01.txt").read_text()

    def test_empty_range_exits_2(self):
        assert main(["scan", "--family", "werner", "--from", "1", "--to", "0", "--step", "0.1"]) == 2
        assert main(["scan", "--family", "werner", "--from", "0", "--to", "1", "--step", "0"]) == 2

    def test_unknown_family_exits_2(self):
        assert main(["scan", "--family", "xstate", "--from", "0", "--to", "1", "--step", "0.1"]) == 2

    def test_weight_out_of_range_exits_2(self, capsys):
        assert main(["scan", "--family", "werner", "--from", "-0.5", "--to", "1", "--step", "0.5"]) == 2
        assert capsys.readouterr().err == "OutOfRange: werner weight must lie in [0, 1], got -0.5\n"


class TestSample:
    def test_deterministic_output(self, capsys):
        assert main(["sample", "--samples", "2000", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["sample", "--samples", "2000", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
        report = parse_report(first)
        assert 0.0 < float(report["fraction"]) < 1.0
        assert report["seed"] == "7"

    def test_small_sample_exits_2(self):
        assert main(["sample", "--samples", "10"]) == 2

    def test_report_is_pinned(self, capsys):
        assert main(["sample", "--samples", "20000", "--seed", "0"]) == 0
        assert capsys.readouterr().out == (DATA / "sample_20000_seed_0.txt").read_text()

    def test_many_chunk_report_is_pinned(self, capsys):
        # 13 chunks of Ginibre draws, the last one partial
        assert main(["sample", "--samples", "100000", "--seed", "1"]) == 0
        assert capsys.readouterr().out == (DATA / "sample_100000_seed_1.txt").read_text()


class TestVerify:
    def test_battery_passes(self, capsys):
        assert main(["verify", "--trials", "40", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5  # four properties + overall
        assert "FAIL" not in out

    def test_zero_trials_exits_2(self):
        assert main(["verify", "--trials", "0"]) == 2

    def test_corrupted_pauli_table_fails(self, monkeypatch, capsys):
        # wrong sign on one entry of the Z(x)Z operator breaks the Bloch route
        bad = states.PAULI_2Q.copy()
        bad[3, 3, 0, 0] *= -1
        monkeypatch.setattr(states, "PAULI_2Q", bad)
        assert main(["verify", "--trials", "10", "--seed", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        # the route-agreement check reports the disagreement it found
        assert "# four_criteria: criteria disagree: " in out

    REPORT_20_SEED_0 = [
        "maximality: PASS (worst margin 5.55111512313e-16)",
        "four_criteria: PASS (worst margin 7.77156117238e-16)",
        "steer_implies_teleport: PASS (worst margin -0.0630357061484)",
        "convexity: PASS (worst margin -0.0445260142784)",
        "overall: PASS",
    ]

    def test_report_is_pinned(self, capsys):
        assert main(["verify", "--trials", "20", "--seed", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == self.REPORT_20_SEED_0

    def test_state_draws_pass_through_random_state(self, monkeypatch, capsys):
        # the public function the tracer wraps sees every seeded stack the battery draws
        draw, calls = sampling.random_state, []

        def counted(g):
            calls.append(g)
            return draw(g)

        monkeypatch.setattr(sampling, "random_state", counted)
        assert main(["verify", "--trials", "20", "--seed", "0"]) == 0
        assert capsys.readouterr().out == "\n".join(self.REPORT_20_SEED_0) + "\n"
        evens, firsts = ([sampling.SeededGenerator(0, step * k) for k in range(20)] for step in (2, 1))
        assert calls == [evens, firsts, firsts]  # maximality, four_criteria, steer_implies_teleport

    def test_multi_stack_report_is_pinned(self, capsys):
        # empirical_f3_sup sweeps maximality's 100 states in more than one stack
        assert sampling._SWEEP_UNITARIES // 100 < 100
        assert main(["verify", "--trials", "100", "--seed", "2"]) == 0
        assert capsys.readouterr().out == (DATA / "verify_100_seed_2.txt").read_text()

    def test_convexity_check_keeps_its_tracer_name(self):
        # benchmarks/tracer.py (KEPT) wraps cli._check_convexity and reads the
        # length of its `members` local on return.
        assert cli._check_convexity is checks.convexity
        assert "members" in checks.convexity.__code__.co_varnames

    @pytest.mark.parametrize("name", _tracer_names())
    def test_tracer_names_resolve(self, name):
        # benchmarks/tracer.py wraps each name at install and raises if one is missing;
        # a KEPT function must also keep the local whose length the tracer records.
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"steerability.{module}"), attr)
        assert callable(fn)
        local = _TRACER["KEPT"].get(name)
        assert local is None or local in fn.__code__.co_varnames


class TestOneValidatePerState:
    """validate is not idempotent on the states it clamps (their renormalized matrix may clamp
    again), so a second call on a report path would move the last bits of those reports only."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, validate, decide = collections.Counter(), states.validate, absolute.decide_aus3
        monkeypatch.setattr(states, "validate", lambda M: calls.update(["validate"]) or validate(M))
        monkeypatch.setattr(absolute, "decide_aus3", lambda rho: calls.update(["decide"]) or decide(rho))
        return calls

    @pytest.mark.parametrize("name", sorted(f.stem for f in (DATA / "analyze").glob("*.json")))
    def test_analyze_validates_its_state_once(self, name, calls, monkeypatch, capsys):
        monkeypatch.chdir(DATA / "analyze")
        assert main(["analyze", "--in", f"{name}.json"]) == 0
        assert calls == {"validate": 1}

    @pytest.mark.parametrize(
        "argv, validates",
        [(["scan", "--family", "gisin", "--from", "0.6", "--to", "0.7", "--step", "1e-3"], 3),
         (["scan", "--family", "werner", "--from", "0", "--to", "1", "--step", "1e-2"], 2),
         (["sample", "--samples", "20000"], 0), (["verify", "--trials", "5"], 4)],
    )
    def test_each_stack_is_validated_once(self, argv, validates, calls, capsys):
        # a scan validates each stack it decides (the grid, then one per refinement round)
        assert main(argv) == 0
        assert calls["validate"] == validates
        if argv[0] == "scan":
            assert calls["decide"] == validates


def _family(tmp_path, family, **parameters):
    record = {"format": "family", "family": family, "parameters": parameters}
    return ["analyze", "--in", write_json(tmp_path / "state.json", record)]


def _raw(tmp_path, content: bytes):
    (tmp_path / "raw.json").write_bytes(content)
    return ["analyze", "--in", str(tmp_path / "raw.json")]


_QUARTER = {f"v{k}": 0.25 for k in range(1, 5)}
_STRING_ENTRY = matrix_record(np.eye(4) / 4)
_STRING_ENTRY["matrix"][0][0][0] = "0.25"
_WERNER = {"format": "family", "family": "werner", "parameters": {"p": 0.5}}
_SCAN = ["scan", "--family", "werner", "--from", "0", "--to", "1", "--step"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(lambda tmp: _family(tmp, "werner", p="abc"), id="parameter-abc"),
        pytest.param(lambda tmp: _family(tmp, "werner", p=None), id="parameter-null"),
        pytest.param(lambda tmp: _family(tmp, "werner", p="0.5"), id="parameter-numeric-string"),
        pytest.param(lambda tmp: _family(tmp, "werner", p=True), id="parameter-true"),
        pytest.param(lambda tmp: ["analyze", "--in", write_json(tmp / "m.json", _STRING_ENTRY)],
                     id="matrix-numeric-string"),
        pytest.param(lambda tmp: _raw(tmp, b"\xff\xfe{}"), id="not-utf-8"),
        pytest.param(lambda tmp: _raw(tmp, b"[" * 100_000), id="nested-too-deeply"),
        pytest.param(lambda tmp: _family(tmp, "xstate", **_QUARTER, v5=float("nan"), v6=0),
                     id="xstate-nan"),
        pytest.param(lambda tmp: ["analyze", "--in", write_json(
            tmp / "m.json", {"format": "matrix", "matrix": [[[float("inf"), 0]] * 4] * 4})],
            id="matrix-inf"),
        pytest.param(lambda tmp: ["analyze", "--in", write_json(
            tmp / "t.json", {"format": ["matrix"], "matrix": []})], id="format-not-a-string"),
        pytest.param(lambda tmp: _SCAN + ["nan"], id="scan-step-nan"),
        pytest.param(lambda tmp: _SCAN[:-3] + ["--to", "inf", "--step", "0.1"], id="scan-to-inf"),
        pytest.param(lambda tmp: _SCAN + [repr(1 / (cli.MAX_SCAN_STEPS + 1))],
                     id="scan-too-many-points"),
        pytest.param(lambda tmp: ["sample", "--samples", "1000", "--seed", "-1"], id="sample-seed-neg"),
        pytest.param(lambda tmp: ["verify", "--trials", "2", "--seed", "-1"], id="verify-seed-neg"),
        pytest.param(lambda tmp: ["analyze", "--in", write_json(tmp / "w.json", _WERNER),
                                  "--out", str(tmp / "missing" / "r.txt")], id="analyze-out-unwritable"),
        pytest.param(lambda tmp: _SCAN + ["0.5", "--out", str(tmp / "missing" / "c.csv")],
                     id="scan-out-unwritable"),
        pytest.param(lambda tmp: _family(tmp, "werner", p=0.5, theta=0.3), id="werner-extra-parameter"),
        pytest.param(lambda tmp: _family(tmp, "xstate", **_QUARTER, v5=0, v6=0, v7=0),
                     id="xstate-extra-parameter"),
        pytest.param(lambda tmp: ["scan", "--family", "xstate"] + _SCAN[3:] + ["0.5"], id="scan-xstate"),
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


_OFF_DIAGONAL = np.zeros((4, 4))
_OFF_DIAGONAL[0, 1], _OFF_DIAGONAL[1, 0] = 1e308, -1e308


@pytest.mark.parametrize(
    "record",
    [
        pytest.param({"format": "family", "family": "xstate",
                      "parameters": {**_QUARTER, "v5": 1e200, "v6": 0}}, id="xstate-overflowing-v5"),
        pytest.param(matrix_record(np.diag([1e308, 1e308, -1e308, -1e308])), id="matrix-overflowing-trace"),
        pytest.param(matrix_record(_OFF_DIAGONAL), id="matrix-overflowing-hermiticity"),
        pytest.param(matrix_record(UNCONVERGED), id="matrix-eigensolve-unconverged"),
        pytest.param({"format": "bloch", "a": [0, 0, 1e308], "b": [0, 0, 1e308],
                      "T": np.diag([0, 0, 1e308]).tolist()}, id="bloch-overflowing"),
    ],
)
def test_bad_state_exits_3_with_one_line(tmp_path, capsys, record):
    assert main(["analyze", "--in", write_json(tmp_path / "state.json", record)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


_JSON_LEAF = st.none() | st.booleans() | st.floats() | st.integers(-10**400, 10**400) | st.text(max_size=4)
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)


def _fixed(n, element):
    return st.lists(element, min_size=n, max_size=n)


class _ValidState(dict):
    """A state record that analyze must report (exit 0)."""


def _near_hermitian(seed, scale):
    """The state of SeededGenerator(seed) with its strict upper triangle moved along each
    entry's phase by scale * HERM_TOL: Hermitian within the window, not exactly."""
    rho = sampling.random_state(sampling.SeededGenerator(seed))
    upper = np.triu_indices(4, 1)
    rho[upper] += scale * linalg.HERM_TOL * np.exp(1j * np.angle(rho[upper]))
    return _ValidState(matrix_record(rho))


_X_WEIGHTS = st.sampled_from([(0.25, 0.25, 0.25, 0.25), (0.5, 0, 0, 0.5), (0, 0.5, 0.5, 0), (1, 0, 0, 0)])
_RECORDS = st.one_of(
    st.fixed_dictionaries(
        {"format": st.just("matrix"), "matrix": _fixed(4, _fixed(4, _fixed(2, _JSON_LEAF))) | _JSON}
    ),
    st.fixed_dictionaries(
        {"format": st.just("bloch"), "a": _fixed(3, _JSON_LEAF), "b": _fixed(3, _JSON_LEAF),
         "T": _fixed(3, _fixed(3, _JSON_LEAF)) | _JSON}
    ),
    st.fixed_dictionaries(
        {"format": st.just("family"), "family": st.sampled_from(["werner", "gisin", "xstate"]) | _JSON,
         "parameters": st.dictionaries(st.sampled_from(["p", "lambda", "theta", "v1", "v5", "v6"]), _JSON_LEAF)
         | _JSON}
    ),
    # all six keys an X state needs, often with weights that sum to 1, so x_state's checks all run
    st.tuples(_X_WEIGHTS | _fixed(4, _JSON_LEAF), _fixed(2, st.floats())).map(lambda v: {
        "format": "family", "family": "xstate",
        "parameters": {f"v{k}": x for k, x in enumerate([*v[0], *v[1]], start=1)}}),
    st.builds(_near_hermitian, st.integers(0, 2**32 - 1), st.floats(0.0, 0.99)),
    _JSON,
)


@settings(max_examples=300)
@given(record=_RECORDS)
def test_state_file_parser_never_crashes(tmp_path_factory, record):
    path = tmp_path_factory.mktemp("fuzz") / "state.json"
    path.write_text(json.dumps(record))
    code = main(["analyze", "--in", str(path), "--out", str(path.with_suffix(".txt"))])
    assert code in ((0,) if isinstance(record, _ValidState) else (0, 2, 3))


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_bad_number_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--samples", "many"])
        assert err.value.code == 2


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_in_one_process_behave_as_in_fresh_ones(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "w.json",
            {"format": "family", "family": "werner", "parameters": {"p": 0.8}},
        )
        out = tmp_path / "report.txt"
        with pytest.raises(SystemExit) as err:
            main(["scan"])
        assert err.value.code == 2
        assert main(["verify", "--trials", "1", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", path, "--out", str(out)]) == 0
        report = out.read_text()
        out.unlink()
        assert capsys.readouterr().out == ""
        assert main(["analyze", "--in", path]) == 0
        assert capsys.readouterr().out == report
        assert not out.exists()
        assert main(["verify", "--trials", "1"]) == 0
        fresh = subprocess.run(
            [sys.executable, "-m", "steerability.cli", "verify", "--trials", "1"],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            capture_output=True, text=True, timeout=60,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert capsys.readouterr().out == fresh.stdout
