import re
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from ibsest import (
    FocalElement,
    Frame,
    IntervalBeliefStructure,
    MassEntry,
    ObservationSet,
    is_crisp,
    validate_ibs,
)
from ibsest.cli import main
from ibsest.io import (
    ObservationParseError,
    parse_expected_text,
    parse_observation_text,
    serialize_observation_set,
)

VALID_TEXT = """\
frame: a, b

obs: 1
  {a} 0.3, 0.4
  {b} 0.2, 0.3
  {a, b} 0.1, 0.5
obs: 2
  {a} 1.0
"""

INVALID_TEXT = """\
frame: a, b

obs: 1
  {a} 0.3, 0.4
  {b} 0.3, 0.4
"""


class TestParser:
    def test_parses_frame_and_observations(self):
        obs = parse_observation_text(VALID_TEXT)
        assert obs.frame.hypotheses == ("a", "b")
        assert obs.size == 2
        assert obs.observations[0].label == "1"

    def test_single_number_means_crisp_mass(self):
        obs = parse_observation_text(VALID_TEXT)
        entry = obs.observations[1].entries[0]
        assert entry.lower == entry.upper == 1.0

    def test_round_trip(self):
        obs = parse_observation_text(VALID_TEXT)
        again = parse_observation_text(serialize_observation_set(obs))
        assert again == obs

    def test_round_trip_keeps_crisp_thirds(self):
        frame = Frame(("a", "b", "c"))
        third = IntervalBeliefStructure(frame, tuple(
            MassEntry(FocalElement.of(frame, [h]), 1 / 3, 1 / 3) for h in "abc"), "t")
        obs = ObservationSet(frame, (third,))
        again = parse_observation_text(serialize_observation_set(obs))
        assert again == obs and is_crisp(again.observations[0])

    @pytest.mark.parametrize("names, label, bad", [
        (("a", "b"), "y#2", "label 'y#2'"),
        (("a#", "b"), "1", "hypothesis 'a#'"),
        (("a,c", "b"), "1", "hypothesis 'a,c'"),
        (("{a", "b"), "1", "hypothesis '{a'"),
        (("a}", "b"), "1", "hypothesis 'a}'"),
        (("a", "b"), " 1", "label ' 1'"),
    ])
    def test_serializer_rejects_what_the_format_cannot_carry(self, names, label, bad):
        frame = Frame(names)
        entry = MassEntry(FocalElement.of(frame, names), 1.0, 1.0)
        obs = ObservationSet(frame, (IntervalBeliefStructure(frame, (entry,), label),))
        with pytest.raises(ValueError, match=re.escape(bad)):
            serialize_observation_set(obs)

    @given(st.data())
    def test_round_trip_of_generated_valid_sets(self, data):
        def text(forbidden, max_size):
            # no whitespace or line breaks, which the format strips or splits at
            chars = st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp", "Zs"),
                                  blacklist_characters=forbidden)
            return st.text(chars, min_size=1, max_size=max_size)

        names = data.draw(st.lists(text("#,{}", 4), min_size=1, max_size=4, unique=True))
        frame = Frame(tuple(names))
        observations = []
        for _ in range(data.draw(st.integers(1, 3))):
            masks = data.draw(st.lists(st.integers(1, 2 ** len(names) - 1),
                                       min_size=1, max_size=4, unique=True))
            weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(masks),
                                         max_size=len(masks)))
            entries = []
            for mask, w in zip(masks, weights):
                p = w / sum(weights)
                lower = p * data.draw(st.sampled_from([0.0, 1.0, 0.5, 1 / 3]))
                upper = p + (1.0 - p) * data.draw(st.floats(0.0, 1.0))
                members = [h for i, h in enumerate(names) if mask >> i & 1]
                entries.append(MassEntry(FocalElement.of(frame, members), lower, upper))
            label = data.draw(text("#", 6))
            observations.append(IntervalBeliefStructure(frame, tuple(entries), label))
        obs = ObservationSet(frame, tuple(observations))
        assume(all(validate_ibs(o).ok for o in obs.observations))
        assert parse_observation_text(serialize_observation_set(obs)) == obs

    def test_missing_frame_is_located(self):
        with pytest.raises(ObservationParseError, match="line 1"):
            parse_observation_text("obs: 1\n  {a} 1.0\n")

    def test_bad_mass_is_located(self):
        with pytest.raises(ObservationParseError, match="line 4"):
            parse_observation_text("frame: a\n\nobs: 1\n  {a} zero\n")

    def test_unknown_hypothesis_is_located(self):
        # worded as in a reference file, without a KeyError's quotes
        message = "^line 4: unknown hypothesis 'c'$"
        with pytest.raises(ObservationParseError, match=message):
            parse_observation_text("frame: a\n\nobs: 1\n  {c} 1.0\n")
        with pytest.raises(ObservationParseError, match=message):
            parse_expected_text("frame: a\n\nrow: alpha=1\n  c 1.0\n  I1 0\n")

    def test_duplicate_focal_element_rejected(self):
        text = "frame: a, b\n\nobs: 1\n  {a} 0.5\n  {a} 0.5\n"
        with pytest.raises(ObservationParseError, match="duplicate"):
            parse_observation_text(text)

    def test_empty_observation_list_rejected(self):
        with pytest.raises(ObservationParseError):
            parse_observation_text("frame: a, b\n")

    def test_comments_and_blanks_ignored(self):
        text = "# header\nframe: a  # trailing\n\nobs: 1\n  {a} 1.0\n"
        assert parse_observation_text(text).size == 1

    @pytest.mark.parametrize("text, line", [
        ("frame: a\n\nrow: alpha=x\n  a 1.0\n", 3),
        ("frame: a\nrow: alpha=1\n  a 1.0\n  I1 zz\n", 4),
        ("# reference\nframe: a, a\n", 2),
        ("frame: a\nrow: alpha=1\n  a 0.9, 0.1\n", 2),
    ], ids=["bad-alpha", "bad-i1", "duplicate-hypothesis", "inverted-bounds"])
    def test_expected_file_errors_are_located(self, text, line):
        with pytest.raises(ObservationParseError, match=f"line {line}:"):
            parse_expected_text(text)

    # an error in a line names that line; an error found once a block is
    # whole names the block's header line
    @pytest.mark.parametrize("text, message", [
        ("frame: a, b\n\nobs: 1\n  {a} 0.5\n  {a} 0.5\n",
         "line 3: observation '1': duplicate focal element {a}"),
        ("frame: a, b\n\nobs: 1\n  {a} 0.5\n  {a} 0.5\n\n# next\n\nobs: 2\n  {a} 1.0\n",
         "line 3: observation '1': duplicate focal element {a}"),
        ("frame: a, b\n\nobs: 1\n\nobs: 2\n  {a} 1.0\n",
         "line 3: observation '1' has no entries"),
        ("frame: a, b\n\nobs: 1\n  {a} 1.0\nobs: 2\n\n",
         "line 5: observation '2' has no entries"),
        ("frame: a, b\nfoo\nobs: 1\n  {a} 1.0\n", "line 2: unrecognized line 'foo'"),
        ("frame: a, b\n  {a} 1.0\nobs: 1\n  {a} 1.0\n",
         "line 2: mass entry outside an observation"),
        ("frame: a\nobs: 1\n  { } 1.0\n", "line 3: empty focal element"),
        ("frame: a\nobs: 1\n  {a} 1.0\n  {a, b} 0.5\nobs: 2\n  {a} 1.0\n",
         "line 4: unknown hypothesis 'b'"),
    ], ids=["duplicate-focal-last", "duplicate-focal-followed", "empty-middle",
            "empty-end", "unrecognized", "outside", "empty-focal", "unknown-hypothesis"])
    def test_observation_errors_name_their_line(self, text, message):
        with pytest.raises(ObservationParseError, match=f"^{re.escape(message)}$"):
            parse_observation_text(text)

    @pytest.mark.parametrize("text, message", [
        ("frame: a, b\n\nrow: alpha=1\n  a 0.5\n  I1 0\n",
         "line 3: row alpha=1.0 missing ['b']"),
        ("frame: a, b\nrow: alpha=1\n  a 0.5\nrow: alpha=2\n  a 0.5\n  b 0.5\n",
         "line 2: row alpha=1.0 missing ['b']"),
        ("frame: a, b\nrow: alpha=1\n  a 0.5\n  b 0.5\n  a 0.4\n",
         "line 5: row alpha=1.0: a given twice"),
        ("frame: a, b\nrow: alpha=1\n  a 0.5\n  I1 0\n  b 0.5\n  I1 0\n",
         "line 6: row alpha=1.0: I1 given twice"),
        ("frame: a, b\nrow: alpha=1\n  a 0.5\n  b 0.5\nrow: alpha=1\n  a 0.4\n  b 0.6\n",
         "line 5: row alpha=1.0 given twice"),
        ("frame: a\n  a 1.0\nrow: alpha=1\n  a 1.0\n", "line 2: value outside a row"),
    ], ids=["missing-last", "missing-followed", "hypothesis-twice", "i1-twice",
            "alpha-twice", "outside"])
    def test_reference_errors_name_their_line(self, text, message):
        with pytest.raises(ObservationParseError, match=f"^{re.escape(message)}$"):
            parse_expected_text(text)


class TestValidateCommand:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "good.obs"
        f.write_text(VALID_TEXT)
        assert main(["validate", str(f)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_file_exits_one_and_names_violation(self, tmp_path, capsys):
        f = tmp_path / "bad.obs"
        f.write_text(INVALID_TEXT)
        assert main(["validate", str(f)]) == 1
        assert "below 1" in capsys.readouterr().out

    def test_unknown_hypothesis_exits_two_with_its_line(self, tmp_path, capsys):
        f = tmp_path / "unknown.obs"
        f.write_text("frame: a\nobs: 1\n  {c} 1.0\n")
        assert main(["validate", str(f)]) == 2
        assert capsys.readouterr().err == "parse error: line 3: unknown hypothesis 'c'\n"

    def test_parse_error_exits_two(self, tmp_path):
        f = tmp_path / "broken.obs"
        f.write_text("obs: 1\n")
        assert main(["validate", str(f)]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.obs")]) == 2

    def test_directory_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["validate", "estimate"])
    def test_non_utf8_byte_exits_two_with_its_line(self, tmp_path, command, capsys):
        f = tmp_path / "latin1.obs"
        f.write_bytes(VALID_TEXT.replace("{b} 0.2", "{b} 0.\xff2").encode("latin-1"))
        assert main([command, str(f)]) == 2
        assert capsys.readouterr().err == (
            "parse error: line 5: not UTF-8 text: byte 0xff does not decode\n")


class TestEstimateCommand:
    def test_crisp_fixture_alpha_one(self, fixtures, capsys):
        code = main([
            "estimate", str(fixtures / "table1.obs"),
            "--alpha", "1", "--restarts", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[0.6000, 0.6000]" in out
        assert "[0.4000, 0.4000]" in out

    def test_report_is_byte_identical_across_runs(self, fixtures, tmp_path, capsys):
        args = [
            "estimate", str(fixtures / "table1.obs"),
            "--alpha", "1,2", "--restarts", "8", "--seed", "5",
        ]
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        report = out1.read_text()
        assert "tool_version:" in report
        assert "input_digest: sha256:" in report
        assert report.count("row: alpha=") == 2

    @pytest.mark.parametrize("table", ["table1", "table3", "table5", "all7"])
    def test_report_matches_golden(self, table, fixtures, tmp_path, capsys):
        # tests/golden holds the reports `ibsest estimate <table> --alpha 1,2
        # --seed 42 --out` wrote at version 0.2.0; a changed search path shows.
        # all7.obs, stored with its report, is 15 observations over all 7
        # subsets of a 3-hypothesis frame, whose order table would exceed the
        # kernel's block budget; its report is at 8 restarts.
        golden = Path(__file__).parent / "golden"
        if table == "all7":
            obs, extra = golden / "all7.obs", ["--restarts", "8"]
        else:
            obs, extra = fixtures / f"{table}.obs", []
        out = tmp_path / "r.txt"
        assert main(["estimate", str(obs), "--alpha", "1,2", "--seed", "42", *extra,
                     "--out", str(out)]) == 0
        capsys.readouterr()

        def lines(text):
            return [l for l in text.splitlines() if not l.startswith("tool_version:")]

        assert lines(out.read_text()) == lines((golden / f"{table}.txt").read_text())

    def test_invalid_observations_exit_one(self, tmp_path, capsys):
        f = tmp_path / "bad.obs"
        f.write_text(INVALID_TEXT)
        assert main(["estimate", str(f), "--restarts", "1"]) == 1
        err = capsys.readouterr().err
        assert "observation '1'" in err and "below 1" in err

    def test_table_matches_report_rounding(self, fixtures, tmp_path, capsys):
        out = tmp_path / "r.txt"
        main([
            "estimate", str(fixtures / "table1.obs"),
            "--alpha", "1", "--restarts", "8",
            "--out", str(out),
        ])
        table = capsys.readouterr().out
        # structured report values, rounded half-even to 4 decimals, must
        # appear verbatim in the printed table
        row = [l for l in out.read_text().splitlines() if l.startswith("row:")][0]
        for token in row.split():
            if token.startswith("a=["):
                lo, hi = token[3:-1].split(",")
                assert f"[{float(lo):.4f}, {float(hi):.4f}]" in table

    def test_report_to_directory_exits_two(self, fixtures, tmp_path, capsys):
        assert main(["estimate", str(fixtures / "table1.obs"), "--alpha", "1",
                     "--restarts", "2", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_alpha_flag_exits_two(self, fixtures):
        assert main(["estimate", str(fixtures / "table1.obs"), "--alpha", "0.5"]) == 2

    @pytest.mark.parametrize("alpha", ["nan", "inf", "1,nan", "2,-inf"])
    def test_non_finite_alpha_exits_two(self, fixtures, alpha, capsys):
        assert main(["estimate", str(fixtures / "table1.obs"), "--alpha", alpha]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "verify"])
    @pytest.mark.parametrize("restarts", ["0", "-3", "x"])
    def test_nonpositive_restarts_exit_two(self, fixtures, command, restarts, capsys):
        args = [str(fixtures / "table1.obs")] if command == "estimate" else []
        assert main([command, *args, "--restarts", restarts]) == 2
        assert "--restarts" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "verify"])
    def test_negative_seed_exits_two(self, fixtures, command, capsys):
        args = [str(fixtures / "table1.obs"), "--alpha", "1"] if command == "estimate" else []
        assert main([command, *args, "--seed", "-1", "--restarts", "4"]) == 2
        assert "--seed: must be at least 0, got -1" in capsys.readouterr().err

    def test_file_that_validates_also_estimates(self, tmp_path, capsys):
        # upper masses sum to 1 - 2e-10: inside the validation tolerance
        f = tmp_path / "near.obs"
        f.write_text("frame: a, b\n\nobs: 1\n  {a} 0.2, 0.4999999998\n"
                     "  {b} 0.3, 0.5\n")
        assert main(["validate", str(f)]) == 0
        assert main(["estimate", str(f), "--alpha", "1", "--restarts", "2"]) == 0
        assert "error" not in capsys.readouterr().err


class TestVerifyCommand:
    def test_corrupted_fixture_fails_by_name(self, fixtures, tmp_path, capsys):
        # copy fixtures, then break table1 so the crisp check cannot pass
        import shutil

        work = tmp_path / "fx"
        shutil.copytree(fixtures, work)
        (work / "table1.obs").write_text(
            "frame: a, b\n\nobs: 1\n  {a} 0.3\n  {b} 0.7\n"
        )
        code = main([
            "verify", "--fixtures", str(work),
            "--restarts", "4",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL crisp-reproduction" in out
        # one line per check, its elapsed seconds after the detail
        lines = out.splitlines()
        assert len(lines) == 11
        for line in lines:
            assert re.fullmatch(r"(PASS|FAIL) [\w.-]+: .+ \(\d+\.\d\d s\)", line), line

    def test_unparsed_fixture_fails_by_name(self, fixtures, tmp_path, capsys):
        import shutil

        work = tmp_path / "fx"
        shutil.copytree(fixtures, work)
        with open(work / "table3.obs", "ab") as fh:
            fh.write(b"\xff")
        code = main(["verify", "--fixtures", str(work), "--restarts", "4"])
        out = capsys.readouterr().out
        assert code == 1
        for alpha in (1, 2, 3):
            assert (f"FAIL dominance-table3-alpha{alpha}: table3.obs: line 24: "
                    "not UTF-8 text: byte 0xff does not decode (") in out
        assert len(out.splitlines()) == 11  # the other checks still ran

    def test_invalid_observation_fails_by_name(self, fixtures, tmp_path, capsys):
        import shutil

        work = tmp_path / "fx"
        shutil.copytree(fixtures, work)
        obs = work / "table3.obs"
        obs.write_text(obs.read_text().replace("{H1} 0.30, 0.40", "{H1} 0.70, 0.20", 1))
        code = main(["verify", "--fixtures", str(work), "--restarts", "4"])
        out = capsys.readouterr().out
        assert code == 1
        for alpha in (1, 2, 3):
            assert (f"FAIL dominance-table3-alpha{alpha}: table3.obs: invalid observation "
                    "'1': entry 0 {H1}: mass bounds [0.7, 0.2] violate") in out
        assert len(out.splitlines()) == 11  # the other checks still ran

    def test_frame_mismatch_fails_by_name(self, fixtures, tmp_path, capsys):
        import shutil

        work = tmp_path / "fx"
        shutil.copytree(fixtures, work)
        obs = work / "table3.obs"
        obs.write_text(obs.read_text().replace("H1", "X1"))
        code = main(["verify", "--fixtures", str(work), "--restarts", "4"])
        out = capsys.readouterr().out
        assert code == 1
        for alpha in (1, 2, 3):
            assert (f"FAIL dominance-table3-alpha{alpha}: table4.expected: row alpha={alpha}: "
                    "theta's frame (H1, H2, H3) is not the observations' frame "
                    "(X1, H2, H3) (") in out
        assert len(out.splitlines()) == 11  # the other checks still ran

    @pytest.mark.parametrize("name, old, new, line", [
        ("table5.obs", "VeryGood", "Best",
         "FAIL verygood-concentration: table5.obs: no hypothesis 'VeryGood' in "
         "frame (Poor, Average, Good, Best, Excellent) ("),
        ("table1.obs", "b", "c",
         "FAIL crisp-reproduction: table1.obs: no hypothesis 'b' in frame (a, c) ("),
    ], ids=["table5", "table1"])
    def test_missing_hypothesis_fails_by_name(self, fixtures, tmp_path, capsys,
                                              name, old, new, line):
        import shutil

        work = tmp_path / "fx"
        shutil.copytree(fixtures, work)
        obs = work / name
        obs.write_text(re.sub(rf"\b{old}\b", new, obs.read_text()))
        code = main(["verify", "--fixtures", str(work), "--restarts", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert line in out
        assert len(out.splitlines()) == 11  # the other checks still ran

    @pytest.mark.parametrize("name, old, new, line", [
        ("table4.expected", "  I1 0.1036\n", "",
         "FAIL ignorance-column: table4.expected: row alpha=2: no I1 value ("),
        ("table6.expected", "  Poor 0.0007, 0.0291\n", "  Poor 0.9, 0.95\n",
         "FAIL dominance-table5-alpha2: table6.expected: row alpha=2: "
         "infeasible interval probabilities: sum of lower masses "),
    ], ids=["no-I1", "infeasible"])
    def test_uncheckable_reference_row_fails_by_name(self, fixtures, tmp_path, capsys,
                                                     name, old, new, line):
        import shutil

        work = tmp_path / "fx"
        shutil.copytree(fixtures, work)
        expected = work / name
        expected.write_text(expected.read_text().replace(old, new, 1))
        code = main(["verify", "--fixtures", str(work), "--restarts", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert line in out
        assert len(out.splitlines()) == 11  # the other checks still ran

    def test_missing_fixture_fails_by_name(self, fixtures, tmp_path, capsys):
        import shutil

        work = tmp_path / "fx"
        shutil.copytree(fixtures, work)
        (work / "table3.obs").unlink()
        code = main(["verify", "--fixtures", str(work), "--restarts", "4"])
        out = capsys.readouterr().out
        assert code == 1
        for alpha in (1, 2, 3):
            assert (f"FAIL dominance-table3-alpha{alpha}: table3.obs: "
                    "No such file or directory (") in out
        assert len(out.splitlines()) == 11  # the other checks still ran

    @pytest.mark.parametrize("kind", ["file", "missing"])
    def test_fixtures_path_not_a_directory_is_named(self, fixtures, tmp_path, capsys, kind):
        path = fixtures / "table1.obs" if kind == "file" else tmp_path / "absent"
        code = main(["verify", "--fixtures", str(path), "--restarts", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f"'{path}'" in captured.err
        assert str(path / "table1.obs") not in captured.err  # the path, not a file in it

    def test_missing_reference_row_fails_by_name(self, fixtures, tmp_path, capsys):
        import shutil

        work = tmp_path / "fx"
        shutil.copytree(fixtures, work)
        expected = work / "table4.expected"
        expected.write_text(expected.read_text().replace("row: alpha=1\n", "row: alpha=30\n"))
        code = main(["verify", "--fixtures", str(work), "--restarts", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL dominance-table3-alpha1: table4.expected has no row alpha=1 (" in out
        assert len(out.splitlines()) == 11  # the other checks still ran
