"""End-to-end CLI checks: schema, exit codes, determinism."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pelliptic as pe
from pelliptic.cli import (
    _load_scalar_field,
    build_parser,
    field_to_json,
    main,
    parse_input_document,
    tensor_to_json,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(tensor_to_json(pe.CoefficientTensor.identity(2, 2))))
    return str(path)


@pytest.fixture
def lame_file(tmp_path):
    path = tmp_path / "lame.json"
    path.write_text(json.dumps(tensor_to_json(pe.lame_tensor(1.0, 1.0, 0.5, 2))))
    return str(path)


class TestSchema:
    def test_tensor_round_trip(self):
        A = pe.random_elliptic_tensor(2, 3, "legendre-perturbed", seed=0)
        doc = tensor_to_json(A)
        F = parse_input_document(json.loads(json.dumps(doc)))
        assert F.is_constant
        assert np.array_equal(F.samples, A.entries)

    def test_field_round_trip(self):
        tensors = [pe.lame_tensor(1.0, 1.0, 0.1 * k, 2) for k in range(4)]
        F = pe.TensorField.sampled(
            np.stack([t.entries for t in tensors]).reshape((2, 2, 2, 2, 2, 2)),
            grid=(2, 2),
            periodic=True,
        )
        doc = field_to_json(F)
        G = parse_input_document(json.loads(json.dumps(doc)))
        assert G.grid == (2, 2)
        assert G.periodic
        assert np.array_equal(G.samples, F.samples)

    def test_wrong_schema_rejected(self):
        with pytest.raises(pe.InputError):
            parse_input_document({"schema": 99, "n": 1, "m": 1, "entries": []})


class TestCheck:
    def test_identity_p4(self, capsys, identity_file):
        code, payload, _ = run_cli(capsys, "check", identity_file, "--p", "4")
        assert code == 0
        assert payload["result"]["strong_margin"] == pytest.approx(0.75, abs=1e-6)
        # the margin is an upper bound from a heuristic search, not a certificate
        assert payload["result"]["classification"] == "strong-p-elliptic (estimated)"
        assert payload["manifest"]["command"] == "check"

    def test_lame_p14_inside_range(self, capsys, lame_file):
        code, payload, _ = run_cli(capsys, "check", lame_file, "--p", "14")
        assert code == 0
        assert payload["result"]["strong_margin"] > 0

    def test_lame_p16_refuted(self, capsys, lame_file):
        code, payload, _ = run_cli(capsys, "check", lame_file, "--p", "16")
        assert code == 1
        assert payload["result"]["strong_margin"] < 0
        assert payload["result"]["classification"] == "refuted"

    def test_polish_steps_in_manifest_only(self, capsys, tmp_path, lame_file):
        # the Lame tensor is rotation-invariant, so its strong margin is one
        # eigensolve with no polish; a random tensor polishes both margins
        random_file = tmp_path / "random.json"
        random_file.write_text(json.dumps(tensor_to_json(
            pe.random_elliptic_tensor(2, 2, "legendre-perturbed", seed=7))))
        for path, strong_polished in ((lame_file, False), (str(random_file), True)):
            runs = [run_cli(capsys, "check", path, "--p", "14", "--seed", "5")[1]
                    for _ in range(2)]
            result = runs[0]["result"]
            assert set(result) == {"p", "t", "strong_margin", "lh_margin", "strong_witness",
                                   "lh_witness", "classification"}
            assert json.dumps(result, sort_keys=True) == json.dumps(runs[1]["result"], sort_keys=True)
            for payload in runs:
                assert type(payload["manifest"]["evaluations"]) is int
                steps = payload["manifest"]["polish_steps"]
                assert set(steps) == {"strong", "lh"}
                assert all(type(v) is int for v in steps.values())
                assert steps["lh"] > 0
                assert (steps["strong"] > 0) if strong_polished else (steps["strong"] == 0)

    def test_p2_strong_margin_is_one_eigensolve(self, capsys, tmp_path):
        # at p = 2 (t = 0) every direction gives the same S(0) = sym(G), so
        # the strong margin is its lambda_min with no polish
        A = pe.random_elliptic_tensor(2, 2, "legendre-perturbed", seed=7)
        assert not A.is_real
        path = tmp_path / "random.json"
        path.write_text(json.dumps(tensor_to_json(A)))
        code, payload, _ = run_cli(capsys, "check", str(path), "--p", "2")
        assert code == 0
        steps = payload["manifest"]["polish_steps"]
        assert steps["strong"] == 0 and steps["lh"] > 0
        C = np.transpose(A.entries, (1, 3, 0, 2)).reshape(4, 4)
        want = np.linalg.eigvalsh(0.5 * (C + C.conj().T))[0]
        assert payload["result"]["strong_margin"] == pytest.approx(want, abs=1e-12)

    def test_scalar_margin_reported_for_m1(self, capsys, tmp_path):
        A = pe.CoefficientTensor.from_matrix(np.eye(2))
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(tensor_to_json(A)))
        code, payload, _ = run_cli(capsys, "check", str(path), "--p", "3")
        assert code == 0
        assert "scalar_margin" in payload["result"]

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        doc = json.dumps(tensor_to_json(pe.CoefficientTensor.identity(2, 2)))
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, payload, _ = run_cli(capsys, "check", "-", "--p", "4")
        assert code == 0
        assert payload["result"]["strong_margin"] == pytest.approx(0.75, abs=1e-6)


class TestRange:
    def test_identity_full_range(self, capsys, identity_file):
        code, payload, _ = run_cli(capsys, "range", identity_file)
        assert code == 0
        assert payload["result"]["p_lo"] == 1.0
        assert payload["result"]["p_hi"] == "inf"

    def test_lame_range_endpoints(self, capsys, lame_file):
        code, payload, _ = run_cli(capsys, "range", lame_file)
        assert code == 0
        assert payload["result"]["p_lo"] == pytest.approx(1.072, abs=2e-3)
        assert payload["result"]["p_hi"] == pytest.approx(14.93, abs=0.15)

    def test_non_legendre_empty_exit_one(self, capsys, tmp_path):
        A = pe.CoefficientTensor.from_matrix(np.array([[-1.0]]))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tensor_to_json(A)))
        code, payload, _ = run_cli(capsys, "range", str(path))
        assert code == 1
        assert payload["result"]["empty"] is True

    def test_field_dispatch(self, capsys, tmp_path):
        tensors = [pe.CoefficientTensor.identity(2, 2), pe.lame_tensor(1, 1, 0.5, 2)]
        F = pe.TensorField.sampled(
            np.stack([t.entries for t in tensors]), grid=(2,)
        )
        path = tmp_path / "field.json"
        path.write_text(json.dumps(field_to_json(F)))
        code, payload, _ = run_cli(capsys, "range", str(path))
        assert code == 0
        assert payload["result"]["p_hi"] == pytest.approx(14.93, abs=0.15)


class TestLame:
    def test_n2_unit(self, capsys):
        code, payload, _ = run_cli(capsys, "lame", "--n", "2", "--lambda", "1", "--mu", "1")
        assert code == 0
        res = payload["result"]
        assert res["c_lower"] == pytest.approx(0.75)
        assert res["c_upper"] == pytest.approx(0.75)
        assert res["r_star"] == pytest.approx(0.5)

    def test_n3_cubic_branch(self, capsys):
        code, payload, _ = run_cli(capsys, "lame", "--n", "3", "--lambda", "1", "--mu", "1")
        assert code == 0
        assert payload["result"]["c_lower"] == pytest.approx(0.6881, abs=1e-4)
        assert payload["result"]["branch"] == "cubic"

    def test_zero_sum_full_interval(self, capsys):
        code, payload, _ = run_cli(capsys, "lame", "--n", "3", "--lambda", "-1", "--mu", "1")
        assert code == 0
        assert payload["result"]["c_lower"] == pytest.approx(1.0)
        assert payload["result"]["p_interval"]["p_hi"] == "inf"

    def test_scalar_fields(self, capsys, tmp_path):
        lam = tmp_path / "lam.json"
        mu = tmp_path / "mu.json"
        lam.write_text(json.dumps({"schema": 1, "values": [1.0, 0.5]}))
        mu.write_text(json.dumps({"schema": 1, "values": [1.0, 1.0]}))
        code, payload, _ = run_cli(
            capsys, "lame", "--n", "2",
            "--lambda-field", str(lam), "--mu-field", str(mu),
        )
        assert code == 0
        expected = min(
            pe.sufficient_constant(2, 1.0, 1.0).c_lower,
            pe.sufficient_constant(2, 0.5, 1.0).c_lower,
        )
        assert payload["result"]["c_lower"] == pytest.approx(expected)


class TestSolvability:
    def test_extrapolation(self, capsys):
        code, payload, _ = run_cli(
            capsys, "solvability", "--theorem", "extrapolation",
            "--n", "3", "--q", "2", "--p0", "4",
        )
        assert code == 0
        assert payload["result"]["p_lo"] == 2.0
        assert payload["result"]["p_hi"] == pytest.approx(8.0)

    @pytest.mark.parametrize("n, p_up, c_star", [(3, 11.508327389173528, 0.4256591620948892),
                                                 (4, 8.056326182038829, 0.3939091615845858)])
    def test_worst_case_pinned(self, capsys, n, p_up, c_star):
        code, payload, err = run_cli(
            capsys, "solvability", "--theorem", "lame-corollary", "--n", str(n), "--worst-case",
        )
        assert code == 0
        assert err == ""
        result = payload["result"]
        assert result["worst_ratio"] == 3.8278614958841275
        assert result["p_up"] == p_up
        assert result["c_star"] == c_star

    def test_lame_corollary_worst_case(self, capsys):
        code, payload, _ = run_cli(
            capsys, "solvability", "--theorem", "lame-corollary",
            "--n", "3", "--worst-case", "--grid-points", "2000",
        )
        assert code == 0
        assert payload["result"]["p_up"] == pytest.approx(11.51, abs=0.02)

    def test_homogenization(self, capsys):
        code, payload, _ = run_cli(
            capsys, "solvability", "--theorem", "homogenization",
            "--n", "4", "--m", "2", "--q-strong", "3",
        )
        assert code == 0
        assert any("(2, 4.5)" in note for note in payload["result"]["notes"])

    def test_infinite_p0(self, capsys):
        code, payload, _ = run_cli(
            capsys, "solvability", "--theorem", "extrapolation",
            "--n", "5", "--q", "3", "--p0", "inf",
        )
        assert code == 0
        assert payload["result"]["p_hi"] == "inf"


class TestFalsify:
    def test_identity_none(self, capsys, identity_file):
        code, payload, _ = run_cli(
            capsys, "falsify", identity_file, "--p", "4", "--trials", "40",
        )
        assert code == 0
        assert payload["result"]["counterexample"] is None

    def test_lame_hit(self, capsys, lame_file):
        t = math.sqrt(0.9)
        p = 2.0 / (1.0 - t)
        code, payload, _ = run_cli(
            capsys, "falsify", lame_file, "--p", str(p), "--trials", "500", "--seed", "3",
        )
        assert code == 1
        ce = payload["result"]["counterexample"]
        assert ce["quotient"] <= 0.0
        assert ce["N"] == 33


class TestContracts:
    def test_parse_error_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, payload, err = run_cli(capsys, "range", str(path))
        assert code == 2
        assert "line" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "range", "/nonexistent/file.json")
        assert code == 2

    def test_result_payload_byte_identical(self, capsys, lame_file):
        _, payload1, _ = run_cli(capsys, "check", lame_file, "--p", "14", "--seed", "5")
        _, payload2, _ = run_cli(capsys, "check", lame_file, "--p", "14", "--seed", "5")
        assert json.dumps(payload1["result"], sort_keys=True) == json.dumps(
            payload2["result"], sort_keys=True
        )

    # one valid call per subcommand and theorem, and the float options it reads
    _INF_CALLS = [
        (("check", "{lame}", "--p", "3"), ("--p",)),
        (("falsify", "{lame}", "--p", "3", "--trials", "2", "--points", "9"), ("--p",)),
        (("lame", "--n", "3", "--lambda", "1", "--mu", "1"), ("--lambda", "--mu", "--mu0")),
        (("solvability", "--theorem", "extrapolation", "--n", "2", "--q", "2", "--p0", "3"),
         ("--q", "--p0")),
        (("solvability", "--theorem", "homogenization", "--n", "2", "--q-strong", "3"),
         ("--q-strong",)),
        (("solvability", "--theorem", "lame-corollary", "--n", "3", "--lambda", "1", "--mu", "1"),
         ("--lambda", "--mu")),
    ]

    def test_inf_calls_cover_every_float_option(self):
        subparsers = next(a for a in build_parser()._actions if a.choices and "check" in a.choices)
        floats = {(name, opt) for name, sub in subparsers.choices.items()
                  for a in sub._actions if a.type is float for opt in a.option_strings}
        covered = {(argv[0], opt) for argv, options in self._INF_CALLS for opt in options}
        assert covered == floats

    @pytest.mark.parametrize("argv, option", [(argv, opt) for argv, options in _INF_CALLS
                                              for opt in options])
    def test_inf_option_exits_two_or_prints_standard_json(self, capsys, lame_file, argv, option):
        argv = [lame_file if a == "{lame}" else a for a in argv]
        if option in argv:
            argv[argv.index(option) + 1] = "inf"
        else:
            argv += [option, "inf"]
        code = main(argv)
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
            return

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        json.loads(captured.out, parse_constant=reject)

    def test_cached_parser_matches_fresh_parser(self, capsys, identity_file, lame_file):
        # one process runs the commands in turn on the parser it built once;
        # each gives what a freshly built parser gives
        p_beyond = repr(2.0 / (1.0 - math.sqrt(0.9)))
        calls = [("check", lame_file, "--p", "14", "--starts", "16", "--seed", "5"),
                 ("range", identity_file, "--kind", "lh"),
                 ("falsify", lame_file, "--p", p_beyond, "--trials", "500", "--seed", "3"),
                 ("check", identity_file, "--p", "4", "--starts", "many")]
        assert build_parser() is build_parser()
        cached = [run_cli(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in cached] == [0, 0, 1, 2]
        for argv, (code, payload, err) in zip(calls, cached):
            build_parser.cache_clear()
            fresh_code, fresh_payload, fresh_err = run_cli(capsys, *argv)
            assert (fresh_code, fresh_err) == (code, err)
            if payload is None:
                assert fresh_payload is None
            else:
                assert json.dumps(fresh_payload["result"], sort_keys=True) == json.dumps(
                    payload["result"], sort_keys=True)

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, pelliptic.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        src = str(Path(pe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [["range"], ["range", "--kind", "lh"], ["check", "--p", "3"],
                                      ["falsify", "--p", "3", "--trials", "5"]])
    def test_overflowing_tensor_is_a_numerical_failure(self, tmp_path, argv):
        # finite entries whose sums overflow: a NaN form would read as "not
        # positive", and range would answer an empty range with exit 1
        A = pe.random_elliptic_tensor(2, 2, "hermitian-positive", seed=1)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(tensor_to_json(
            pe.CoefficientTensor(A.entries * (1.7e308 / np.abs(A.entries).max())))))
        src = str(Path(pe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-m", "pelliptic.cli", argv[0], str(path), *argv[1:]],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 3
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("numerical failure: ")

    def test_bad_p_exit_two(self, capsys, identity_file):
        code, _, err = run_cli(capsys, "check", identity_file, "--p", "1.0")
        assert code == 2

    # one call per subcommand and the keys of its result payload
    _MANIFEST_CALLS = [
        (("check", "{identity}", "--p", "4", "--starts", "8"),
         {"p", "t", "strong_margin", "lh_margin", "strong_witness", "lh_witness",
          "classification"}),
        (("range", "{identity}", "--kind", "lh"), {"empty", "t_lo", "t_hi", "p_lo", "p_hi"}),
        (("lame", "--n", "3", "--lambda", "1", "--mu", "1"),
         {"n", "c_lower", "c_upper", "gamma_star", "r_star", "branch", "p_interval", "samples",
          "admissibility"}),
        (("solvability", "--theorem", "extrapolation", "--n", "3", "--q", "2", "--p0", "4"),
         {"theorem", "p_lo", "p_hi", "lower_closed", "notes"}),
        (("falsify", "{identity}", "--p", "4", "--trials", "2", "--points", "9", "--seed", "3"),
         {"counterexample", "trials", "p", "note"}),
    ]

    @pytest.mark.parametrize("argv, result_keys", _MANIFEST_CALLS,
                             ids=[argv[0] for argv, _ in _MANIFEST_CALLS])
    def test_manifest_contract(self, capsys, identity_file, argv, result_keys):
        # the manifest carries the command, every other parsed option but
        # the seed, the seed, the version and the duration; check adds its
        # two run counters
        argv = [identity_file if a == "{identity}" else a for a in argv]
        code, payload, _ = run_cli(capsys, *argv)
        assert code == 0
        manifest = payload["manifest"]
        counters = {"evaluations", "polish_steps"} if argv[0] == "check" else set()
        assert set(manifest) == {"command", "config", "seed", "version", "duration_ms"} | counters
        args = vars(build_parser().parse_args(argv))
        assert manifest["command"] == argv[0]
        assert manifest["seed"] == args.get("seed")
        assert manifest["config"] == {k: v for k, v in args.items()
                                      if k not in ("func", "command", "seed")}
        assert set(payload["result"]) == result_keys

    @pytest.mark.parametrize("case", ["no-moduli", "missing-field-file", "no-entries", "bad-n",
                                      "n-overflow", "grid-overflow", "lambda-inf",
                                      "lambda-field-overflow", "p0-text", "q-strong-nan",
                                      "lame-n1", "p0-minus-inf", "q-strong-minus-inf",
                                      "falsify-p-inf", "falsify-p-overflow", "lambda-field-empty",
                                      "falsify-points-0", "falsify-points-negative",
                                      "falsify-points-huge", "check-starts-huge",
                                      "schema-true", "schema-float", "n-true", "m-float",
                                      "grid-float", "grid-false", "periodic-string",
                                      "periodic-int", "entries-string", "entries-true",
                                      "samples-null", "values-string", "values-oversized",
                                      "check-p-inf", "grid-points-huge"] + [f"seed-{command}-{seed}"
                                                        for command in ("range", "check", "falsify")
                                                        for seed in ("-1", "4294967296")])
    def test_malformed_input_exit_two(self, capsys, tmp_path, case):
        # json reads 1e400 as inf
        field = field_to_json(pe.TensorField.sampled(
            [pe.CoefficientTensor.from_matrix(k * np.eye(1)) for k in (1.0, 2.0)], grid=(2,)))
        identity = tensor_to_json(pe.CoefficientTensor.identity(2, 2))
        entries_true, samples_null = copy.deepcopy(identity["entries"]), copy.deepcopy(field["samples"])
        entries_true[1][1][1][1][1] = True
        samples_null[1][0][0][0][0][0] = None
        docs = {
            "no-entries": '{"schema": 1, "n": 2, "m": 2}',
            "bad-n": '{"schema": 1, "n": "x", "m": 2, "entries": []}',
            "n-overflow": '{"schema": 1, "n": 1e400, "m": 2, "entries": []}',
            "grid-overflow": '{"schema": 1, "n": 1, "m": 1, "grid": [1e400], "samples": []}',
            # the schema, n, m and grid entries are JSON integers, and a
            # bool is none; periodic is a JSON boolean
            "schema-true": json.dumps(dict(identity, schema=True)),
            "schema-float": json.dumps(dict(identity, schema=1.0)),
            "n-true": json.dumps(dict(field, n=True)),
            "m-float": json.dumps(dict(field, m=1.7)),
            "grid-float": json.dumps(dict(field, grid=[2.0])),
            "grid-false": json.dumps(dict(field, grid=[False])),
            "periodic-string": json.dumps(dict(field, periodic="false")),
            "periodic-int": json.dumps(dict(field, periodic=0)),
            # every entry and sample is a JSON number: no string, no bool
            # (even among numbers), no null
            "entries-string": '{"schema": 1, "n": 1, "m": 1, "entries": [[[[["1.5", 0]]]]]}',
            "entries-true": json.dumps(dict(identity, entries=entries_true)),
            "samples-null": json.dumps(dict(field, samples=samples_null)),
        }
        message = {"schema-true": "unsupported schema", "schema-float": "unsupported schema",
                   "n-true": "n must be a JSON integer", "m-float": "m must be a JSON integer",
                   "grid-float": "grid entry must be a JSON integer",
                   "grid-false": "grid entry must be a JSON integer",
                   "periodic-string": "periodic must be a JSON boolean",
                   "periodic-int": "periodic must be a JSON boolean",
                   "entries-string": "JSON numbers", "entries-true": "JSON numbers",
                   "samples-null": "JSON numbers"}.get(case)
        if case == "no-moduli":
            argv = ["lame", "--n", "3"]
        elif case == "missing-field-file":
            missing = str(tmp_path / "missing.json")
            argv = ["lame", "--n", "2", "--lambda-field", missing, "--mu-field", missing]
        elif case == "lambda-inf":
            argv = ["lame", "--n", "3", "--lambda", "inf", "--mu", "1"]
            message = "moduli must be finite"
        elif case == "lambda-field-overflow":
            lam, mu = tmp_path / "lam.json", tmp_path / "mu.json"
            lam.write_text('{"schema": 1, "values": [1.0, 1e400]}')
            mu.write_text('{"schema": 1, "values": [1.0, 1.0]}')
            argv = ["lame", "--n", "3", "--lambda-field", str(lam), "--mu-field", str(mu)]
            message = "moduli must be finite"
        elif case in ("values-string", "values-oversized"):
            # an integer beyond the float range cannot be read as a float
            lam, mu = tmp_path / "lam.json", tmp_path / "mu.json"
            lam.write_text('{"schema": 1, "values": ["1.0", true]}' if case == "values-string"
                           else '{"schema": 1, "values": [1.0, 1%s]}' % ("0" * 400))
            mu.write_text('{"schema": 1, "values": [1.0, 1.0]}')
            argv = ["lame", "--n", "3", "--lambda-field", str(lam), "--mu-field", str(mu)]
            message = "JSON numbers" if case == "values-string" else "too large"
        elif case == "check-p-inf":
            path = tmp_path / "identity.json"
            path.write_text(json.dumps(identity))
            argv = ["check", str(path), "--p", "inf"]
            message = "p must lie in (1, inf), got inf"
        elif case.startswith("seed-"):
            # a seed outside [0, 2**32) would replay another seed's draws
            _, command, seed = case.split("-", 2)
            path = tmp_path / "identity.json"
            path.write_text(json.dumps(identity))
            extra = {"range": [], "check": ["--p", "4"], "falsify": ["--p", "4", "--trials", "2"]}
            argv = [command, str(path), *extra[command], f"--seed={seed}"]
            message = "seed must lie in [0, 2**32)"
        elif case == "grid-points-huge":
            # refused before the scan: 10**12 points would run for over a day
            argv = ["solvability", "--theorem", "lame-corollary", "--n", "3", "--worst-case",
                    "--grid-points", "1000000000000"]
            message = "grid_points must lie in [100, 100000000]"
        elif case == "p0-text":
            argv = ["solvability", "--theorem", "extrapolation", "--n", "3", "--q", "2",
                    "--p0", "abc"]
            message = "--p0"
        elif case == "q-strong-nan":
            argv = ["solvability", "--theorem", "homogenization", "--n", "3",
                    "--q-strong", "nan"]
            message = "q_strong"
        elif case == "p0-minus-inf":
            # argparse reads -inf as an option, so --p0 has no value
            argv = ["solvability", "--theorem", "extrapolation", "--n", "3", "--q", "2",
                    "--p0", "-inf"]
            message = "--p0"
        elif case == "q-strong-minus-inf":
            argv = ["solvability", "--theorem", "homogenization", "--n", "3",
                    "--q-strong", "-inf"]
            message = "--q-strong"
        elif case in ("falsify-p-inf", "falsify-p-overflow"):
            path = tmp_path / "identity.json"
            path.write_text(json.dumps(tensor_to_json(pe.CoefficientTensor.identity(2, 2))))
            argv = ["falsify", str(path), "--trials", "2",
                    "--p", "inf" if case == "falsify-p-inf" else "1e400"]
            message = "p must lie in (1, inf)"
        elif case.startswith("falsify-points"):
            # checked before the first grid is drawn: 100000 points would
            # need a grid of tens of GiB
            path = tmp_path / "identity.json"
            path.write_text(json.dumps(tensor_to_json(pe.CoefficientTensor.identity(2, 2))))
            points = {"0": "0", "negative": "-5", "huge": "100000"}[case.rsplit("-", 1)[1]]
            argv = ["falsify", str(path), "--trials", "2", "--p", "3", f"--points={points}"]
            message = "points per axis"
        elif case == "check-starts-huge":
            # refused before the start batch is allocated
            path = tmp_path / "identity.json"
            path.write_text(json.dumps(tensor_to_json(pe.CoefficientTensor.identity(2, 2))))
            argv = ["check", str(path), "--p", "3", "--starts", "100000000"]
            message = "outer_starts must lie in [1, 4096]"
        elif case == "lambda-field-empty":
            empty = tmp_path / "empty.json"
            empty.write_text('{"schema": 1, "values": []}')
            argv = ["lame", "--n", "3", "--lambda-field", str(empty), "--mu-field", str(empty)]
            message = "must not be empty"
        elif case == "lame-n1":
            argv = ["lame", "--n", "1", "--lambda", "1", "--mu", "1"]
            message = "dimension must be >= 2"
        else:
            path = tmp_path / "doc.json"
            path.write_text(docs[case])
            argv = ["range", str(path)]
        code, payload, err = run_cli(capsys, *argv)
        assert code == 2
        assert payload is None
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("input error: ")
        assert "Traceback" not in err
        if message is not None:
            assert message in err


# JSON-like values; json reads 1e400 as inf, as Python does
_LEAVES = st.one_of(
    st.integers(-3, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e400, -1e400, math.nan, "inf", "1", "x", "", None, True, 10**400]),
)
_JSONISH = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=10,
)
_BASE_DOCS = (
    tensor_to_json(pe.CoefficientTensor.identity(2, 2)),
    field_to_json(pe.TensorField.sampled(
        [pe.CoefficientTensor.from_matrix(k * np.eye(1)) for k in (1.0, 2.0)], grid=(2,))),
)


@st.composite
def _documents(draw):
    """A valid tensor or field document with some fields dropped, replaced
    or with one nested value replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(_BASE_DOCS)))
    for key in ("n", "m", "entries", "grid", "samples", "periodic"):
        action = draw(st.sampled_from(["keep", "keep", "keep", "drop", "replace", "leaf"]))
        if action == "drop":
            doc.pop(key, None)
        elif action == "replace":
            doc[key] = draw(_LEAVES | _JSONISH)
        elif action == "leaf" and isinstance(doc.get(key), list) and doc[key]:
            node = doc[key]
            while True:
                i = draw(st.integers(0, len(node) - 1))
                if not (isinstance(node[i], list) and node[i]):
                    node[i] = draw(_JSONISH)
                    break
                node = node[i]
    return doc


class TestInputFuzz:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(doc=_documents())
    def test_document_parses_or_input_error(self, doc):
        try:
            F = parse_input_document(doc)
        except pe.InputError:
            return
        assert isinstance(F, pe.TensorField)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(values=_JSONISH, drop_schema=st.booleans())
    def test_scalar_field_loads_or_input_error(self, tmp_path_factory, values, drop_schema):
        doc = {"values": values} if drop_schema else {"schema": 1, "values": values}
        path = tmp_path_factory.getbasetemp() / "fuzzed-scalar-field.json"
        path.write_text(json.dumps(doc))
        try:
            out = _load_scalar_field(str(path))
        except pe.InputError:
            return
        assert isinstance(out, np.ndarray) and out.ndim == 1 and out.dtype == float
