import dataclasses
import json
import warnings

import pytest

from stochorder import cli, harness
from stochorder.cli import run
from stochorder.orders import dkw_epsilon


def read_json(path):
    with open(path) as f:
        return json.load(f)


class TestMajor:
    def test_true_case(self, capsys):
        assert run(["major", "--x", "2,2", "--y", "3,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["holds"] is True
        assert doc["tool"] == "stochorder"

    def test_false_case_still_exit_zero(self, capsys):
        assert run(["major", "--x", "3,1", "--y", "2,2"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["holds"] is False

    def test_weak_mode_flag(self, capsys):
        assert run(["major", "--x", "1,1", "--y", "3,1", "--mode", "sub"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["holds"] is True

    def test_dimension_error_exit_one(self, capsys):
        assert run(["major", "--x", "1,2", "--y", "1,2,3"]) == 1
        assert "error" in capsys.readouterr().err


class TestChain:
    def test_steps_emitted(self, capsys):
        assert run(["chain", "--x", "2,2,2", "--y", "3,2,1"]) == 0
        steps = json.loads(capsys.readouterr().out)["result"]["steps"]
        assert steps[0] == [2.0, 2.0, 2.0]
        assert steps[-1] == [1.0, 2.0, 3.0]

    def test_precondition_error(self, capsys):
        assert run(["chain", "--x", "3,1", "--y", "2,2"]) == 1


class TestClassify:
    def test_bare_region_to_stdout(self, capsys):
        assert run(["classify", "--p", "2", "--q", "2"]) == 0
        assert capsys.readouterr().out.strip() == "A3"

    def test_json_output_file(self, tmp_path, capsys):
        out = tmp_path / "region.json"
        assert run(["classify", "--p", "-1", "--q", "-1",
                    "--output", str(out)]) == 0
        assert read_json(out)["result"]["region"] == "A0"
        assert capsys.readouterr().out == ""


class TestConditions:
    def test_convex_exp_pair(self, capsys):
        assert run(["conditions", "--phi", "exp", "--psi", "exp",
                    "--variant", "convex"]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert res["condition_a_holds"] and res["condition_b_holds"]

    def test_reports_the_closed_form(self, capsys):
        # the grid starts at u = 0.01 and passes this pair; the closed form
        # takes u -> 0, where r_logshift r_psi falls below 1
        assert run(["conditions", "--phi", "logshift", "--psi", "power:0.5005",
                    "--variant", "concave"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"] == {"phi": ["logshift"], "psi": ["power", 0.5005],
                                 "variant": "concave"}
        assert list(doc["result"]) == ["condition_a_holds", "condition_b_holds",
                                       "phi2_sign", "ratio_inf"]
        assert doc["result"]["condition_a_holds"] is True
        assert doc["result"]["condition_b_holds"] is False
        assert doc["result"]["phi2_sign"] == -1
        assert doc["result"]["ratio_inf"] == pytest.approx(0.4995 / 0.5005, rel=1e-12)

    def test_grid_option_is_a_usage_error(self):
        with pytest.raises(SystemExit) as e:
            run(["conditions", "--phi", "exp", "--psi", "exp", "--grid", "0.5,2,16"])
        assert e.value.code == 1

    def test_bad_variant_usage_error(self):
        with pytest.raises(SystemExit) as e:
            run(["conditions", "--phi", "exp", "--psi", "exp",
                 "--variant", "sideways"])
        assert e.value.code == 1

    @pytest.mark.parametrize("phi", ["power:2000", "power:1e-300"])
    def test_transform_failing_validation_usage_error(self, phi, capsys):
        # the map is built inside argparse; its NumericError is a usage error
        with pytest.raises(SystemExit) as e:
            run(["conditions", "--phi", phi, "--psi", "exp"])
        assert e.value.code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            f"stochorder conditions: error: argument --phi: power({float(phi[6:]):g}):"
        )


class TestLogconcaveAndLR:
    def test_logconcave_json(self, capsys):
        assert run(["logconcave", "--dist", "gengamma:1,2,1",
                    "--variant", "identity"]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert res["verdict"] == "log_concave"

    def test_logconcave_power_variant(self, capsys):
        assert run(["logconcave", "--dist", "gengamma:1,0.5,1",
                    "--variant", "power:1"]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert res["verdict"] == "not_log_concave"
        assert res["witness"] is not None

    def test_logconcave_logshift_variant(self, capsys):
        # the check verify runs for psi = logshift, exp(X) - e
        assert run(["logconcave", "--dist", "gengamma:1,2,1",
                    "--variant", "logshift"]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert (res["verdict"], res["witness"]) == ("not_log_concave", 4.670774270471606)

    def test_logconcave_power_variant_not_a_number(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["logconcave", "--dist", "gengamma:1,2,1", "--variant", "power:abc"])
        assert e.value.code == 1
        err = capsys.readouterr().err
        assert "_parse_lc_variant" not in err
        assert err.splitlines()[-1] == (
            "stochorder logconcave: error: argument --variant: "
            "variant must be identity, log, logshift or power:r, got 'power:abc'"
        )

    def test_lr_json(self, capsys):
        assert run(["lr", "--d1", "gengamma:2,1.5,1",
                    "--d2", "gengamma:2,1.5,2"]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert res["verdict"] == "d1_lr_greater"

    @pytest.mark.parametrize("d1, d2, verdict", [
        # the central masses do not overlap; the slope is least at x = 2500
        ("gengamma:1,1,100", "gengamma:2,1,0.01", "not_ordered"),
        # exponential against Weibull: the slope 1 - x + 2 x**2 stays positive
        ("gengamma:1,3,1", "gengamma:2,1,1", "d1_lr_greater"),
    ])
    def test_lr_across_powers(self, capsys, d1, d2, verdict):
        assert run(["lr", "--d1", d1, "--d2", d2]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["verdict"] == verdict

    def test_lr_witness_outside_the_floats(self, tmp_path):
        # the same-power turning point is 1e600: no witness, not a traceback
        out = tmp_path / "lr.json"
        assert run(["lr", "--d1", "gammapower:200,1000,1", "--d2", "gammapower:200,1,0.001",
                    "--output", str(out)]) == 0
        res = read_strict(out)["result"]
        assert (res["verdict"], res["witness"]) == ("not_ordered", None)

    def test_bad_dist_spec(self):
        with pytest.raises(SystemExit) as e:
            run(["lr", "--d1", "cauchy:0,1", "--d2", "gengamma:1,1,1"])
        assert e.value.code == 1


class TestConvolve:
    def test_csv_and_comparison(self, tmp_path, capsys):
        csv_path = tmp_path / "cdf.csv"
        code = run([
            "convolve",
            "--dists", "gengamma:1,1,1;gengamma:1,1,1",
            "--weights", "4,1",
            "--compare-weights", "2,2",
            "--csv", str(csv_path),
        ])
        assert code == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert res["comparison"]["relation"] == "a_dominates"
        assert res["meta"]["m"] + 2 == res["grid_points"]
        assert res["meta"]["gap"] < 1e-7
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x,F"
        assert len(lines) == res["grid_points"] + 1

    def test_comparison_calls_the_names_harness_holds(self, capsys, monkeypatch):
        # the benchmark's traced run counts oracle calls through these names
        calls = []
        for name in ("convolve_weighted", "st_compare_exact"):
            def counted(*args, _real=getattr(harness, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(harness, name, counted)
        assert run(["convolve", "--dists", "gengamma:1,1,1;gengamma:1,1,1",
                    "--weights", "4,1", "--compare-weights", "2,2"]) == 0
        assert calls == ["convolve_weighted", "convolve_weighted", "st_compare_exact"]
        assert json.loads(capsys.readouterr().out)["result"]["comparison"]["crossing_count"] == 0

    def test_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STOCHORDER_OUTPUT_DIR", str(tmp_path))
        assert run(["convolve", "--dists", "gengamma:1,1,1",
                    "--weights", "1", "--output", "conv.json"]) == 0
        assert (tmp_path / "conv.json").exists()


class TestVerify:
    def scenario_dict(self, a, b):
        return {
            "dists": [["gengamma", 1, 1, 1]] * 2,
            "phi": ["exp"],
            "psi": ["exp"],
            "variant": "convex",
            "a": a,
            "b": b,
            "premise_mode": "full",
            "n_samples": 20000,
            "seed": 5,
            "delta": 0.01,
            "label": "cli-test",
        }

    def test_consistent_scenario(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(self.scenario_dict([4.0, 1.0], [2.0, 2.0])))
        assert run(["verify", "--scenario", str(path)]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert res["consistent"] is True
        assert res["predicted"] == "a"

    def test_cross_power_chain_is_analytic(self, tmp_path, capsys):
        # exponential then Weibull with shape 2: lr-decreasing in closed form
        data = self.scenario_dict([4.0, 1.0], [2.0, 2.0])
        data.update(dists=[["gengamma", 1, 3, 1], ["gengamma", 2, 1, 1]])
        path = tmp_path / "cross.json"
        path.write_text(json.dumps(data))
        assert run(["verify", "--scenario", str(path)]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert res["consistent"] is True
        assert res["hypothesis"]["lr_chain_ok"]["status"] == "pass"
        assert res["hypothesis"]["lr_chain_ok"]["basis"] == "analytic"

    def test_failed_hypothesis_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self.scenario_dict([2.0, 2.0], [3.0, 1.0])))
        assert run(["verify", "--scenario", str(path)]) == 2
        res = json.loads(capsys.readouterr().out)["result"]
        assert list(res) == ["status", "failed_field", "hypothesis"]
        assert res["status"] == "hypothesis_not_established"
        assert res["failed_field"] == "majorization_ok"

    def test_logshift_psi_refuted_exit_two(self, tmp_path, capsys):
        # exp(X) - e is never log-concave; the closed form says so
        data = self.scenario_dict([1.0, 7.0], [5.0, 5.0])
        data.update(phi=["power", 0.5], psi=["logshift"], variant="concave")
        path = tmp_path / "logshift.json"
        path.write_text(json.dumps(data))
        assert run(["verify", "--scenario", str(path)]) == 2
        res = json.loads(capsys.readouterr().out)["result"]
        assert list(res) == ["status", "failed_field", "hypothesis"]
        assert res["status"] == "hypothesis_not_established"
        assert res["failed_field"] == "logconcavity_ok"

    def test_missing_file_exit_one(self, capsys):
        assert run(["verify", "--scenario", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("pair,stages", [
        (([4.0, 1.0], [2.0, 2.0]), ["hypotheses", "sampling", "dkw", "oracle_a", "oracle_b", "exact"]),
        (([2.0, 2.0], [3.0, 1.0]), ["hypotheses"]),  # stops at the premise
    ])
    def test_profile_written_apart(self, tmp_path, capsys, pair, stages):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(self.scenario_dict(*pair)))
        plain, profiled = tmp_path / "plain.json", tmp_path / "profiled.json"
        code = run(["verify", "--scenario", str(path), "--output", str(plain)])
        assert run(["verify", "--scenario", str(path), "--output", str(profiled),
                    "--profile", str(tmp_path / "p.json")]) == code
        assert profiled.read_bytes() == plain.read_bytes()
        prof = read_json(tmp_path / "p.json")
        assert prof["command"] == "verify"
        [entry] = prof["scenarios"]
        assert entry["label"] == "cli-test"
        assert list(entry["stages"]) == stages
        assert list(prof["totals"]) == stages
        for t in entry["stages"].values():
            assert t["cpu_s"] >= 0 and t["wall_s"] >= 0

    def test_overrides_change_config(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(self.scenario_dict([4.0, 1.0], [2.0, 2.0])))
        assert run(["verify", "--scenario", str(path), "--seed", "9",
                    "--samples", "15000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 9
        assert doc["config"]["n_samples"] == 15000

    def test_delta_override_sets_the_band(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(self.scenario_dict([4.0, 1.0], [2.0, 2.0])))
        assert run(["verify", "--scenario", str(path), "--delta", "0.05"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["delta"] == 0.05  # the file says 0.01
        # each of the two samples adds its own half-width
        assert doc["result"]["verdict"]["band"] == 2 * dkw_epsilon(20000, 0.05)


class TestCounterexample:
    def test_crossing_found(self, capsys):
        assert run(["counterexample", "--alpha", "1",
                    "--a", "2,1,1", "--b", "1.5,1.5,1"]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert res["verdict"]["relation"] == "crossing"
        assert res["verdict"]["crossing_count"] == 1

    def test_bad_precondition_exit_one(self, capsys):
        assert run(["counterexample", "--alpha", "0.5",
                    "--a", "2,1,1", "--b", "1.5,1.5,1"]) == 1

    def test_nan_alpha_exit_one(self, capsys):
        assert run(["counterexample", "--alpha", "nan",
                    "--a", "2,1,1", "--b", "1.5,1.5,1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stochorder: error:") and "alpha" in err


class TestSuite:
    def test_small_suite_deterministic_bytes(self, tmp_path):
        args = ["suite", "--n", "4", "--seed", "3", "--samples", "5000",
                "--presets", "exp_exp,power_a3"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(args + ["--output", str(out1)]) == 0
        assert run(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = read_json(out1)
        assert doc["result"]["summary"]["inconsistent"] == 0

    def test_profile_per_scenario_in_index_order(self, tmp_path):
        args = ["suite", "--n", "5", "--seed", "3", "--samples", "5000",
                "--presets", "exp_exp,power_a3", "--output", str(tmp_path / "r.json")]
        assert run(args + ["--profile", str(tmp_path / "p.json")]) == 0
        prof = read_json(tmp_path / "p.json")
        report = read_json(tmp_path / "r.json")["result"]
        assert prof["command"] == "suite"
        assert [e["index"] for e in prof["scenarios"]] == list(range(5))
        assert [e["status"] for e in prof["scenarios"]] == [r["status"] for r in report["records"]]
        assert list(prof["totals"]) == [
            "scenario", "hypotheses", "sampling", "dkw", "oracle_a", "oracle_b", "exact"]
        for name, total in prof["totals"].items():
            assert total["count"] == 5
            assert total["cpu_s"] == pytest.approx(
                sum(e["stages"][name]["cpu_s"] for e in prof["scenarios"]))
        for e in prof["scenarios"]:
            whole = e["stages"]["scenario"]["wall_s"]
            parts = sum(t["wall_s"] for k, t in e["stages"].items() if k != "scenario")
            assert parts <= whole

    def test_unknown_preset_exit_one(self, capsys):
        assert run(["suite", "--n", "1", "--presets", "bogus"]) == 1

    def test_failed_hypotheses_record_and_exit_two(self, tmp_path, monkeypatch):
        # no generated scenario fails its hypotheses, so the odd indices are
        # made to fail their lr chain here
        check_hypotheses = harness.check_hypotheses

        def check(s):
            hyp = check_hypotheses(s)
            if int(s.label.partition("#")[2]) % 2:
                forced = harness.HypothesisCheck(harness.CheckStatus.FAIL, "forced")
                return dataclasses.replace(hyp, lr_chain_ok=forced)
            return hyp

        monkeypatch.setattr(harness, "check_hypotheses", check)
        out = tmp_path / "r.json"
        assert run(["suite", "--n", "4", "--seed", "3", "--samples", "5000",
                    "--presets", "exp_exp", "--output", str(out)]) == 2
        report = read_json(out)["result"]
        assert [r["status"] for r in report["records"]] == ["consistent", "failed_hypotheses"] * 2
        for r in report["records"][1::2]:
            assert list(r) == ["index", "preset", "scenario", "status", "hypothesis"]
            assert r["hypothesis"]["lr_chain_ok"] == {
                "status": "fail", "basis": "analytic", "detail": "forced", "witness": None}
        assert report["summary"]["run"] == 2
        assert report["summary"]["failed_hypotheses"] == 2


class TestMalformedInput:
    """Bad specs are rejected where they enter, with exit code 1 and a
    one-line message, never a traceback or a silent default."""

    def verify_with(self, tmp_path, capsys, **fields):
        data = TestVerify().scenario_dict([4.0, 1.0], [2.0, 2.0])
        data.update(fields)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        code = run(["verify", "--scenario", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("stochorder: error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_power_transform_without_exponent(self):
        with pytest.raises(SystemExit) as e:
            run(["conditions", "--phi", "power", "--psi", "exp"])
        assert e.value.code == 1

    def test_dist_spec_too_short(self, tmp_path, capsys):
        self.verify_with(tmp_path, capsys, dists=[["gengamma", 1]] * 2)

    def test_dist_spec_not_numeric(self, tmp_path, capsys):
        self.verify_with(tmp_path, capsys, dists=[["gengamma", "x", 1, 1]] * 2)

    def test_dist_spec_too_long(self, tmp_path, capsys):
        self.verify_with(tmp_path, capsys, dists=[["gengamma", 1, 1, 1, 99]] * 2)

    def test_transform_spec_too_long(self, tmp_path, capsys):
        self.verify_with(tmp_path, capsys, phi=["power", 2, 7])

    def test_unknown_variant(self, tmp_path, capsys):
        self.verify_with(tmp_path, capsys, variant="convexx")

    def test_unknown_premise_mode(self, tmp_path, capsys):
        self.verify_with(tmp_path, capsys, premise_mode="bogus")

    def test_convolve_short_dist_spec(self, capsys):
        assert run(["convolve", "--dists", "gengamma:1,1", "--weights", "1"]) == 1
        assert capsys.readouterr().err.startswith("stochorder: error:")

    def test_convolve_tiny_weight(self, capsys):
        # one NumericError on the cells' width, and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["convolve", "--dists", "gengamma:1,1,1", "--weights", "1e-320"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("stochorder: error: cell width") and err.count("\n") == 1
        assert "too small" in err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_suite_without_scenarios(self, n, capsys):
        assert run(["suite", "--n", n]) == 1
        assert capsys.readouterr().err.startswith("stochorder: error:")

    def assert_one_line_error(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("stochorder: error:") and err.count("\n") == 1

    def test_suite_negative_seed(self, capsys):
        self.assert_one_line_error(run(["suite", "--n", "1", "--seed", "-1"]), capsys)

    def test_suite_empty_presets(self, capsys, monkeypatch):
        # an empty list names the preset "", never all nine
        monkeypatch.setattr(
            harness, "run_scenario", lambda *a: pytest.fail("a scenario started")
        )
        self.assert_one_line_error(run(["suite", "--n", "2", "--presets", ""]), capsys)

    @pytest.mark.parametrize("tol", ["inf", "1e400"])
    def test_major_infinite_tol(self, tol, capsys):
        self.assert_one_line_error(run(["major", "--x", "1,2", "--y", "1,2", "--tol", tol]), capsys)

    def test_verify_negative_weight_under_a_power_phi(self, tmp_path, capsys):
        # the square root of -1 used to reach float() as a complex number
        # and end the command with a TypeError traceback
        self.verify_with(
            tmp_path, capsys, dists=[["gengamma", 1, 2, 1]] * 2, phi=["power", 2.0],
            psi=["power", 2.0], a=[-1.0, 3.0], b=[1.0, 1.0],
        )

    @pytest.mark.parametrize("a", ["41", [True, 1.0]])
    def test_verify_weights_not_an_array_of_numbers(self, a, tmp_path, capsys):
        self.verify_with(tmp_path, capsys, a=a)

    def test_verify_negative_seed(self, tmp_path, capsys):
        self.verify_with(tmp_path, capsys, seed=-3)

    def test_verify_infinite_sample_count(self, tmp_path, capsys):
        # json reads 1e400 as inf, which has no integer value
        path = tmp_path / "s.json"
        text = json.dumps(TestVerify().scenario_dict([4.0, 1.0], [2.0, 2.0]))
        path.write_text(text.replace('"n_samples": 20000', '"n_samples": 1e400'))
        self.assert_one_line_error(run(["verify", "--scenario", str(path)]), capsys)

    def test_verify_sample_count_past_memory(self, tmp_path, capsys):
        # numpy refuses 10**15 doubles (7.11 PiB) before it touches memory
        self.verify_with(tmp_path, capsys, n_samples=10**15)

    def test_suite_sample_count_past_memory(self, capsys):
        self.assert_one_line_error(run(["suite", "--n", "1", "--samples", str(10**15)]), capsys)

    def test_verify_file_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("[1, 2]")
        code = run(["verify", "--scenario", str(path), "--seed", "3"])
        self.assert_one_line_error(code, capsys)

    @pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 200_000],
                             ids=["not_utf8", "nested_past_recursion_limit"])
    def test_verify_file_not_readable_json(self, content, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(content)
        self.assert_one_line_error(run(["verify", "--scenario", str(path)]), capsys)

    @pytest.mark.parametrize("fields", [
        {"seed": 2.7}, {"n_samples": 20000.9}, {"seed": True},
    ])
    def test_verify_non_integral_seed_or_sample_count(self, fields, tmp_path, capsys):
        # never truncated to seed 2, 20000 samples or seed 1
        self.verify_with(tmp_path, capsys, **fields)

    @pytest.mark.parametrize("flag,value", [
        ("--samples", "999"), ("--delta", "0"), ("--delta", "1.5"),
    ])
    def test_suite_bad_sampling(self, flag, value, capsys, monkeypatch):
        monkeypatch.setattr(
            harness, "run_scenario", lambda *a: pytest.fail("a scenario started")
        )
        self.assert_one_line_error(run(["suite", "--n", "2", flag, value]), capsys)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_strict(path):
    """The JSON document at ``path``; NaN, Infinity and -Infinity raise."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


class TestStrictJSON:
    def test_every_command_writes_standard_json(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(
            {**TestVerify().scenario_dict([4.0, 1.0], [2.0, 2.0]), "n_samples": 2000}
        ))
        commands = {
            "major": ["major", "--x", "2,2", "--y", "3,1"],
            "chain": ["chain", "--x", "2,2,2", "--y", "3,2,1"],
            "conditions": ["conditions", "--phi", "exp", "--psi", "power:2"],
            # the infimum of r_phi r_psi is -inf for both logshift pairs
            "logshift_exp": ["conditions", "--phi", "logshift", "--psi", "exp",
                             "--variant", "concave"],
            "logshift_power": ["conditions", "--phi", "logshift", "--psi", "power:2",
                               "--variant", "concave"],
            "classify": ["classify", "--p", "2", "--q", "2"],
            "logconcave": ["logconcave", "--dist", "gammapower:-3,0.9,50"],
            "lr": ["lr", "--d1", "gengamma:1,1,100", "--d2", "gengamma:2,1,0.01"],
            "convolve": ["convolve", "--dists", "gengamma:1,1,1", "--weights", "1"],
            "compare": ["convolve", "--dists", "gengamma:1,1,1;gengamma:1,1,1",
                        "--weights", "4,1", "--compare-weights", "2,2"],
            "verify": ["verify", "--scenario", str(scenario)],
            "counterexample": ["counterexample", "--alpha", "1", "--a", "2,1,1",
                               "--b", "1.5,1.5,1"],
            "suite": ["suite", "--n", "9", "--samples", "1000",
                      "--profile", str(tmp_path / "profile.json")],
        }
        docs = {}
        for name, argv in commands.items():
            out = tmp_path / f"{name}.json"
            assert run(argv + ["--output", str(out)]) == 0, name
            docs[name] = read_strict(out)
        assert {c for c, *_ in commands.values()} == set(cli._COMMANDS)
        assert docs["logshift_exp"]["result"]["ratio_inf"] is None
        assert docs["logshift_power"]["result"]["ratio_inf"] is None
        assert docs["conditions"]["result"]["ratio_inf"] == 0.5
        assert docs["suite"]["result"]["summary"]["consistent"] == 9
        assert len(read_strict(tmp_path / "profile.json")["scenarios"]) == 9
        # key orders are part of the report's bytes
        for name in ("lr", "logconcave"):
            assert list(docs[name]["result"]) == ["verdict", "witness", "detail"], name
        verdicts = [
            v for r in docs["suite"]["result"]["records"]
            for v in (r["report"]["verdict"], r["report"]["oracle_verdict"]) if v is not None
        ]
        assert len(verdicts) > 9  # the DKW verdicts and some oracle ones
        for v in verdicts:
            assert list(v) == ["relation", "max_pos_dev", "max_neg_dev", "band",
                               "crossing_count", "meta"]
            assert list(v["meta"]) == sorted(v["meta"])

    def test_a_non_finite_number_is_an_error(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_json(str(tmp_path / "nan.json"), config={}, result={"x": float("nan")})
        # so is an object JSON cannot write; only an enum is written as its value
        with pytest.raises(TypeError):
            cli._write_json(str(tmp_path / "object.json"), config={}, result={"x": object()})
