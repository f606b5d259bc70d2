"""Tests for CSV ingestion, report rendering, and the verify command."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from exanova.cli import (
    Dataset,
    InputError,
    main,
    parse_dataset,
    serialize_dataset,
)

F = Fraction

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
        again = parse_dataset(serialize_dataset(ds))
        assert again == ds
        # and a second round trip is byte-identical
        assert serialize_dataset(again) == serialize_dataset(ds)

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

    def test_layout_built_in_cell_order(self):
        ds = parse_dataset("A,B,y\n2,1,20\n1,1,10\n1,2,11\n2,2,21\n")
        layout, y = ds.layout_and_response()
        assert layout.dims == (2, 2)
        assert layout.counts == (1, 1, 1, 1)
        assert y == [F(10), F(11), F(20), F(21)]

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
        assert "4/4 checks passed" in out

    def test_adhoc_dominance_precondition_error(self, tmp_path):
        mats = tmp_path / "bad.json"
        mats.write_text(json.dumps({"X": [[1], [0]], "H": [[0], [1]], "L": [[0], [1]]}))
        code, _ = run_cli(["verify", "dominance", "--matrices", str(mats)])
        assert code == 2
