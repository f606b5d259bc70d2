"""Tests for CSV ingestion, report rendering, and the verify command."""

import argparse
import dataclasses
import gc
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from exanova import dominance, hypotest, verify
from exanova.exactlin import Projector, RatMatrix, Subspace
from exanova.cli import (
    Dataset,
    InputError,
    _prop3_dims,
    main,
    parse_dataset,
)

F = Fraction
GOLDEN = Path(__file__).parent / "data" / "golden"

BALANCED_CSV = """A,B,y
1,1,1
1,1,1.5
2,1,2
2,1,2.25
1,2,3
1,2,3.5
2,2,4
2,2,4.75
"""

EMPTY_CELL_CSV = """A,B,y
1,2,1
1,3,3
2,1,4
2,2,5
2,3,6
3,1,7
3,2,8
3,3,9
"""


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestParsing:
    def test_exact_decimal_parsing(self):
        ds = parse_dataset("A,B,y\n1,1,1.25\n1,2,0.5\n2,1,3\n2,2,1\n")
        assert ds.response[0] == F(5, 4)
        assert ds.response[1] == F(1, 2)

    def test_round_trip_is_identity(self):
        ds = parse_dataset(BALANCED_CSV)
        labels = ((("1", "1"),) * 2 + (("2", "1"),) * 2 + (("1", "2"),) * 2
                  + (("2", "2"),) * 2)
        response = (F(1), F(3, 2), F(2), F(9, 4), F(3), F(7, 2), F(4), F(19, 4))
        assert ds == Dataset(("A", "B"), labels, response)
        # the exact fraction rendering of every response parses back to it
        rows = "".join(f"{a},{b},{y}\n" for (a, b), y in zip(labels, response))
        assert parse_dataset("A,B,y\n" + rows) == ds

    def test_header_requires_single_y(self):
        with pytest.raises(InputError, match="'y'"):
            parse_dataset("A,B,z\n1,1,2\n")
        with pytest.raises(InputError, match="'y'"):
            parse_dataset("y,B,y\n1,1,2\n")

    def test_bad_rows_report_line_numbers(self):
        with pytest.raises(InputError, match="line 3"):
            parse_dataset("A,B,y\n1,1,2\n1,1\n")
        with pytest.raises(InputError, match="line 2"):
            parse_dataset("A,B,y\n1,1,abc\n")
        with pytest.raises(InputError, match="line 4"):
            parse_dataset("A,B,y\n1,1,1\n1,2,1\n,2,1\n")

    def test_response_past_bound_rejected(self):
        # refused before Fraction would build a billion-digit integer
        with pytest.raises(InputError, match="line 3: .* decimal exponent beyond ±100"):
            parse_dataset("A,B,y\n1,1,2\n1,1,1e999999999\n")
        with pytest.raises(InputError, match="line 2: response has 101 characters"):
            parse_dataset("A,B,y\n1,1," + "1" * 101 + "\n")
        assert parse_dataset("A,B,y\n1,1,-1e-100\n").response == (F(-1, 10**100),)

    def test_layout_built_in_cell_order(self):
        cases = [
            ("2,1,20\n1,1,10\n1,2,11\n2,2,21\n", (1, 1, 1, 1), [10, 11, 20, 21]),
            # replicates keep file order within their cell
            ("2,2,23\n1,1,12\n2,1,20\n1,1,10\n2,2,21\n1,2,11\n1,1,11\n2,2,22\n",
             (3, 1, 1, 3), [12, 10, 11, 11, 20, 23, 21, 22]),
        ]
        for rows, counts, expected in cases:
            layout, y = parse_dataset("A,B,y\n" + rows).layout_and_response()
            assert layout.dims == (2, 2)
            assert layout.counts == counts
            assert y == [F(v) for v in expected]

    def test_empty_cells_accepted(self):
        ds = parse_dataset(EMPTY_CELL_CSV)
        layout, _ = ds.layout_and_response()
        assert layout.counts[0] == 0
        assert layout.counts[1] == 1
        assert layout.n == 8


class TestAnovaCommand:
    def test_balanced_all_types_agree(self, tmp_path):
        data = tmp_path / "balanced.csv"
        data.write_text(BALANCED_CSV)
        code, out = run_cli(
            ["anova", "--data", str(data), "--effect", "A", "--type", "all",
             "--output", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        ss = [t["ss"] for t in doc["tests"]]
        assert ss[0] == ss[1] == ss[2]
        assert [t["type"] for t in doc["tests"]] == [1, 2, 3]

    def test_empty_cell_type3_report(self, tmp_path):
        data = tmp_path / "gap.csv"
        data.write_text(EMPTY_CELL_CSV)
        code, out = run_cli(
            ["anova", "--data", str(data), "--model", "saturated", "--effect", "A",
             "--type", "3", "--output", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        entry = doc["tests"][0]
        assert entry["df"] == 1
        assert entry["estimable_dim"] == 1
        assert entry["target_basis"] == [[0, 0, 0, 1, 1, 1, -1, -1, -1]]
        # one observation per filled cell: no residual, F undefined
        assert entry["f"] is None
        assert entry["p"] is None
        assert entry["ss"]["num"] > 0

    def test_empty_cell_table_annotation(self, tmp_path):
        data = tmp_path / "gap.csv"
        data.write_text(EMPTY_CELL_CSV)
        code, out = run_cli(
            ["anova", "--data", str(data), "--effect", "A", "--type", "3"]
        )
        assert code == 0
        assert "proportional to avg[A=2] - avg[A=3]" in out

    def test_byte_identical_reruns(self, tmp_path):
        data = tmp_path / "gap.csv"
        data.write_text(EMPTY_CELL_CSV)
        argv = ["anova", "--data", str(data), "--effect", "A", "--type", "all",
                "--output", "json"]
        _, first = run_cli(argv)
        _, second = run_cli(argv)
        assert first == second

    def test_effect_must_be_in_model(self, tmp_path):
        data = tmp_path / "balanced.csv"
        data.write_text(BALANCED_CSV)
        code, _ = run_cli(
            ["anova", "--data", str(data), "--model", "a-only", "--effect", "B"]
        )
        assert code == 2

    def test_interaction_skips_additive_type(self, tmp_path):
        data = tmp_path / "balanced.csv"
        data.write_text(BALANCED_CSV)
        code, out = run_cli(
            ["anova", "--data", str(data), "--effect", "AB", "--type", "all",
             "--output", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert [t["type"] for t in doc["tests"]] == [1, 3]
        assert doc["skipped"][0]["type"] == 2

    def test_custom_model_and_bit_effect(self, tmp_path):
        data = tmp_path / "balanced.csv"
        data.write_text(BALANCED_CSV)
        code, out = run_cli(
            ["anova", "--data", str(data), "--model", "custom:00,10", "--effect", "10",
             "--type", "1", "--output", "json"]
        )
        assert code == 0
        assert json.loads(out)["model"] == "custom:00,10"

    def test_user_contrast_file(self, tmp_path):
        data = tmp_path / "balanced.csv"
        data.write_text(BALANCED_CSV)
        contrasts = tmp_path / "contrasts.json"
        contrasts.write_text(json.dumps([[[1], [-1]], [[1], [-1]]]))
        argv_user = ["anova", "--data", str(data), "--effect", "A", "--type", "3",
                     "--contrasts", str(contrasts), "--output", "json"]
        argv_default = ["anova", "--data", str(data), "--effect", "A", "--type", "3",
                        "--output", "json"]
        _, user_out = run_cli(argv_user)
        _, default_out = run_cli(argv_default)
        # contrasts change coordinates, never the SS or the tested span
        assert json.loads(user_out)["tests"][0]["ss"] == json.loads(default_out)["tests"][0]["ss"]
        assert (
            json.loads(user_out)["tests"][0]["target_basis"]
            == json.loads(default_out)["tests"][0]["target_basis"]
        )

    def test_bad_contrast_file_rejected(self, tmp_path):
        data = tmp_path / "balanced.csv"
        data.write_text(BALANCED_CSV)
        contrasts = tmp_path / "contrasts.json"
        contrasts.write_text(json.dumps([[[1], [1]], [[1], [-1]]]))
        code, _ = run_cli(
            ["anova", "--data", str(data), "--effect", "A", "--contrasts", str(contrasts)]
        )
        assert code == 2

    def test_three_factor_file_rejected(self, tmp_path):
        data = tmp_path / "three.csv"
        data.write_text("A,B,C,y\n1,1,1,1\n2,1,1,2\n1,2,2,3\n2,2,2,4\n")
        code, _ = run_cli(["anova", "--data", str(data), "--effect", "A"])
        assert code == 2

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        data = tmp_path / "utf16.csv"
        data.write_bytes(b"\xff\xfeA,B,y\n")
        code, out = run_cli(["anova", "--data", str(data)])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == f"error: {str(data)!r} is not UTF-8 text\n"

    def test_non_utf8_contrast_file_rejected(self, tmp_path, capsys):
        data = tmp_path / "balanced.csv"
        data.write_text(BALANCED_CSV)
        contrasts = tmp_path / "utf16.json"
        contrasts.write_bytes(b"\xff\xfe[]")
        code, out = run_cli(["anova", "--data", str(data), "--contrasts", str(contrasts)])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == f"error: {str(contrasts)!r} is not UTF-8 text\n"

    @pytest.mark.parametrize("output", ["table", "json"])
    def test_huge_exponent_response_rejected(self, tmp_path, output, capsys):
        data = tmp_path / "big.csv"
        data.write_text("A,B,y\n1,1,1e5000\n1,2,1\n2,1,2\n2,2,3\n1,1,2\n")
        code, out = run_cli(["anova", "--data", str(data), "--output", output])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("error: line 2: response '1e5000'")

    @pytest.mark.parametrize("output", ["table", "json"])
    @pytest.mark.parametrize("rows", [
        # F near 1e360 overflows a float
        "1,1,0\n1,1,1e-90\n1,2,1e90\n2,1,1e90\n2,1,1e90\n2,2,0\n2,2,0\n",
        # 48 distinct 98-digit denominators: the exact SS passes str()'s
        # 4300-digit limit
        "".join(f"{1 + i % 2},{1 + i // 2 % 2},1/{10**97 + i}\n" for i in range(48)),
    ], ids=["float-overflow", "digit-limit"])
    def test_unrepresentable_result_fails_cleanly(self, tmp_path, rows, output, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("A,B,y\n" + rows)
        code, out = run_cli(["anova", "--data", str(data), "--output", output])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("error: ")

    def test_long_fields_keep_a_space_between_columns(self):
        argv = ["anova", "--data", str(GOLDEN / "n0.csv"), "--effect", "A", "--type", "all"]
        _, table = run_cli(argv)
        _, doc = run_cli([*argv, "--output", "json"])
        rows = {line.split()[0]: line.split() for line in table.splitlines()[7:10]}
        fstrs = []
        for entry in json.loads(doc)["tests"]:
            ss, f = entry["ss"], entry["f"]
            fstrs.append(f"{f['num']}/{f['den']}")
            assert rows[str(entry["type"])] == [
                str(entry["type"]), f"{ss['num']}/{ss['den']}", str(entry["df"]), fstrs[-1],
                f"{entry['p']:.6g}", str(entry["estimable_dim"]),
            ]
        assert max(map(len, fstrs)) >= 18

    def test_all_types_share_one_plan(self, tmp_path, monkeypatch):
        calls = {"projector": 0, "_int_vector": 0}

        def counted(name):
            original = getattr(hypotest, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(hypotest, name, counted(name))
        data = tmp_path / "gap.csv"
        data.write_text(EMPTY_CELL_CSV)
        code, out = run_cli(["anova", "--data", str(data), "--effect", "A", "--type", "all"])
        assert code == 0
        assert out.count("testing target") == 3
        # the report-model projector and the exact response are built once per call
        assert calls == {"projector": 1, "_int_vector": 1}


class TestVerifyCommand:
    def test_table1_passes(self):
        code, out = run_cli(["verify", "table1"])
        assert code == 0
        assert "19/19 checks passed" in out

    def test_prop3_with_dims(self):
        code, out = run_cli(["verify", "prop3", "--factors", "3", "--dims", "2,3,2"])
        assert code == 0
        assert "3/3 checks passed" in out

    def test_dominance_alias_seeded(self):
        code, out = run_cli(["verify", "dominance", "--seed", "7", "--trials", "50"])
        assert code == 0
        assert "(50 trials)" in out

    def test_fdist_battery(self):
        code, out = run_cli(["verify", "fdist"])
        assert code == 0
        assert "8/8 checks passed" in out

    def test_deterministic_output(self):
        argv = ["verify", "prop1", "--seed", "11", "--trials", "25"]
        _, first = run_cli(argv)
        _, second = run_cli(argv)
        assert first == second

    @pytest.mark.parametrize("target", ["prop1", "dominance"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_rejected(self, target, trials, capsys):
        code, out = run_cli(["verify", target, "--trials", trials])
        assert code == 2
        assert out == ""
        assert f"error: --trials must be at least 1, got {trials}" in capsys.readouterr().err

    def test_dims_and_factors_need_prop3(self, capsys):
        code, out = run_cli(["verify", "fdist", "--dims", "banana", "--factors", "7"])
        assert (code, out) == (2, "")
        assert "error: --dims and --factors only apply to the prop3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table1", "--seed", "3"],
        ["prop3", "--trials", "7"],
        ["fdist", "--trials", "7", "--seed", "3"],
        ["prop2", "--matrices", "xhl.json", "--seed", "3"],
        ["dominance", "--matrices", "xhl.json", "--trials", "7"],
    ])
    def test_seed_and_trials_need_a_randomized_suite(self, argv, capsys):
        code, out = run_cli(["verify", *argv])
        assert (code, out) == (2, "")
        assert "error: --seed and --trials only apply to the randomized" in capsys.readouterr().err

    def test_each_failing_check_names_its_own_first_failure(self, monkeypatch):
        # the SSE check fails from trial 0 and the reverse-H check from
        # trial 1; each FAIL line must carry its own first failure
        calls = []
        monkeypatch.setattr(verify, "quad_form", lambda y, p: -1)
        original = verify.projector

        def projector(m):
            calls.append(m)
            return original(m) if len(calls) == 1 else Projector(RatMatrix.zeros(1, 1))
        monkeypatch.setattr(verify, "projector", projector)
        code, out = run_cli(["verify", "prop1", "--trials", "3"])
        assert code == 1
        assert "FAIL  prop1 independently built H recovers the same projector (3 trials)  " \
               "(trial 1: independent H gives a different projector)" in out
        assert "FAIL  prop1 quadratic form equals restricted-minus-full SSE (3 trials)  " \
               "(trial 0: extra-SSE routes disagree)" in out
        assert "PASS  prop1 tested span equals estimable part (3 trials)\n" in out

    def test_prop2_checks_keep_their_own_first_failure(self, monkeypatch):
        trials = []
        original = verify.check_dominance

        def check_dominance(x, h, l):
            trials.append(None)
            rpt = original(x, h, l)
            if len(trials) == 1:
                return dataclasses.replace(rpt, df_bounds_hold=False)
            return dataclasses.replace(rpt, nnd_holds=False)
        monkeypatch.setattr(verify, "check_dominance", check_dominance)
        details = {c.name.split(" (")[0]: c.detail for c in verify.verify_prop2(trials=3)}
        assert details["prop2 df sandwich nu_H <= nu_L <= nu_H + n - nu_X"] == "trial 0: df sandwich fails"
        assert details["prop2 noncentrality difference is nonnegative definite"] == "trial 1: ncp difference not nnd"
        assert details["prop2 projected competitor recovers sp(H)"] == ""

    def test_prop3_checks_keep_their_own_first_failure(self, monkeypatch):
        # the second family fails at the first subset, removal only at
        # two-effect subsets
        original = verify.c_block
        monkeypatch.setattr(verify, "c_block", lambda e, dims, scheme=None: (
            original(e, dims) if scheme is None else RatMatrix.zeros(*original(e, dims, scheme).shape)))
        monkeypatch.setattr(Subspace, "intersect", lambda self, other: Subspace.zero(self.ambient))
        span, removal, scheme = verify.verify_prop3(((2, 3),))
        assert span.passed and span.detail == ""
        assert not removal.passed and removal.detail.startswith("removal mismatch at subset {")
        assert not scheme.passed and scheme.detail.startswith("scheme dependence at subset {")

    @pytest.mark.parametrize("broken", ["noncentrality", "denominator", "numerator"])
    def test_power_monotonicity_checks_fail_along_their_own_axis(self, broken, monkeypatch):
        # a power that is monotone on the whole grid, except along one axis
        def fake_power(alpha, nu1, nu2, ncp):
            ncp = 3.0 if broken == "noncentrality" and ncp == 8.0 else ncp
            nu2 = 8 if broken == "denominator" and nu2 == 32 else nu2
            nu1 = 1 if broken == "numerator" and nu1 == 6 else nu1
            g = ncp * nu2 / (nu1 * (nu2 + 1))
            return alpha + (1 - alpha) * g / (1 + g)
        monkeypatch.setattr(verify.fdist, "power", fake_power)
        mono = {c.name.split(" ")[4]: c.passed for c in verify.verify_fdist()[-3:]}
        assert mono == {axis: axis != broken for axis in ("noncentrality", "denominator", "numerator")}

    @pytest.mark.parametrize("target", ["prop3", "all"])
    def test_dims_past_four_factors_refused_before_any_suite(self, target, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("a suite ran")
        for name in ("verify_table1", "verify_prop1", "verify_prop2", "verify_prop3", "verify_fdist"):
            monkeypatch.setattr(verify, name, never)
        code, out = run_cli(["verify", target, "--dims", "2,2,2,2,2"])
        assert (code, out) == (2, "")
        assert "4294967295" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["prop3", "all"])
    @pytest.mark.parametrize("dims", ["3,1", "1,2", "0"])
    def test_dims_below_two_refused_before_any_suite(self, target, dims, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("a suite ran")
        for name in ("verify_table1", "verify_prop1", "verify_prop2", "verify_prop3", "verify_fdist"):
            monkeypatch.setattr(verify, name, never)
        code, out = run_cli(["verify", target, "--dims", dims])
        assert (code, out) == (2, "")
        assert f"--dims entries must be at least 2 (a factor needs two levels), got {dims}" in capsys.readouterr().err

    def test_four_factor_dims_accepted(self):
        args = argparse.Namespace(dims="2,2,2,2", factors=None)
        assert _prop3_dims(args) == ((2, 2, 2, 2),)

    @pytest.mark.parametrize("flags, kwargs", [
        ([], {}),
        (["--trials", "4"], {"trials": 4}),
        (["--seed", "3", "--trials", "4"], {"seed": 3, "trials": 4}),
    ])
    def test_seed_and_trials_passed_only_when_given(self, flags, kwargs, monkeypatch):
        seen = []
        monkeypatch.setattr(verify, "verify_prop1", lambda **kw: seen.append(kw) or [])
        monkeypatch.setattr(verify, "verify_prop2", lambda **kw: seen.append(kw) or [])
        run_cli(["verify", "prop1", *flags])
        run_cli(["verify", "prop2", *flags])
        assert seen == [kwargs, kwargs]

    def test_empty_dims_refused(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "verify_prop3", lambda **kw: pytest.fail("a suite ran"))
        code, out = run_cli(["verify", "prop3", "--dims", ""])
        assert (code, out) == (2, "")
        assert "cannot parse --dims ''" in capsys.readouterr().err

    def test_dims_factor_mismatch(self):
        code, _ = run_cli(["verify", "prop3", "--factors", "2", "--dims", "2,3,2"])
        assert code == 2

    def test_adhoc_dominance_matrices(self, tmp_path):
        mats = tmp_path / "xhl.json"
        mats.write_text(json.dumps({
            "X": [[1, 0], [0, 1], [1, 1], [0, 0]],
            "H": [[1, 0], [0, 1], [1, 1], [0, 0]],
            "L": [[1, 0], [0, 1], [1, 1], [5, -3]],
        }))
        code, out = run_cli(["verify", "dominance", "--matrices", str(mats)])
        assert code == 0
        assert "5/5 checks passed" in out

    def test_adhoc_dominance_reports_every_fact(self, monkeypatch):
        # a failed fifth fact (the auxiliary projector) must show and fail
        # the run, as it does in the randomized suite
        original = dominance.check_dominance
        monkeypatch.setattr(dominance, "check_dominance", lambda x, h, l: dataclasses.replace(
            original(x, h, l), aux_idempotent=False))
        code, out = run_cli(["verify", "dominance", "--matrices", str(GOLDEN / "xhl.json")])
        assert code == 1
        assert "FAIL  dominance: auxiliary projector symmetric idempotent\n" in out
        assert "4/5 checks passed" in out

    @pytest.mark.parametrize("content", ["5", "[1, 2]", '"XHL"'])
    def test_matrices_file_must_hold_object(self, tmp_path, content, capsys):
        mats = tmp_path / "xhl.json"
        mats.write_text(content)
        code, out = run_cli(["verify", "dominance", "--matrices", str(mats)])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: matrices file must hold a JSON object with X, H and L")

    def test_non_utf8_matrices_file_rejected(self, tmp_path, capsys):
        mats = tmp_path / "utf16.json"
        mats.write_bytes(b"\xff\xfe{}")
        code, out = run_cli(["verify", "dominance", "--matrices", str(mats)])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == f"error: {str(mats)!r} is not UTF-8 text\n"

    def test_adhoc_dominance_precondition_error(self, tmp_path):
        mats = tmp_path / "bad.json"
        mats.write_text(json.dumps({"X": [[1], [0]], "H": [[0], [1]], "L": [[0], [1]]}))
        code, _ = run_cli(["verify", "dominance", "--matrices", str(mats)])
        assert code == 2

    def test_parser_built_once(self):
        run_cli(["verify", "fdist"])
        gc.collect()
        old = gc.get_debug()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_cli(["verify", "fdist"])
            gc.collect()
            parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(old)
            gc.garbage.clear()
        assert parsers == []
