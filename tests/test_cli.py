import csv
import json
import os

import pytest

from harbench import cli, dataset, evaluation
from harbench.ensemble import LearnerParams

from conftest import make_line


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    """Tiny two-user synthetic spec for end-to-end command runs."""
    cfg = {
        "seed": 3,
        "samples_per_class": 400,
        "classes": [
            {"label": 1, "frequency": 0.5, "mean": 2.0, "noise_sigma": 0.25},
            {"label": 2, "frequency": 1.2, "mean": 4.0, "noise_sigma": 0.25},
            {"label": 3, "frequency": 1.9, "mean": 6.0, "noise_sigma": 0.25},
        ],
        "users": [{"id": 1, "offset": 0.0}, {"id": 2, "offset": 0.1}],
    }
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# a valid synthetic spec, varied by the input-file tests
SPEC = {"seed": 1, "samples_per_class": 50,
        "classes": [{"label": 1, "frequency": 0.5, "mean": 2.0},
                    {"label": 2, "frequency": 1.2, "mean": 4.0}],
        "users": [{"id": 1, "offset": 0.0}, {"id": 2, "offset": 0.1}]}
BAD_CLASS_FIELDS = [("noise_sigma", -1.0), ("noise_sigma", float("nan")),
                    ("frequency", float("inf")), ("amplitude", float("nan")),
                    ("mean", float("-inf"))]


def _first_class(**fields):
    """SPEC with some fields of its first class replaced."""
    return dict(SPEC, classes=[dict(SPEC["classes"][0], **fields),
                               *SPEC["classes"][1:]])


def run(argv):
    return cli.main(argv)


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert "sweep" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--user", "2", "--window", "50", "--overlap", "0.0"],
        ["profile", "--out", "out"]], ids=["eval", "profile"])
    def test_seed_only_on_sweep(self, capsys, spec_file, argv):
        # nothing in eval or profile reads a seed, so they take none
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--synthetic", spec_file, "--seed", "0"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["sweep", "eval", "profile"])
    def test_learner_defaults_are_learner_params(self, command):
        required = {"sweep": ["--seed", "0", "--out", "o"],
                    "eval": ["--user", "1", "--window", "50",
                             "--overlap", "0.0"],
                    "profile": ["--out", "o"]}[command]
        args = cli.build_parser().parse_args([command] + required)
        assert cli._learner_params(args) == LearnerParams()


class TestValidate:
    def test_missing_data_dir_exits_three(self, capsys, tmp_path):
        assert run(["validate", "--data-dir", str(tmp_path / "nope")]) == \
            cli.EXIT_MISSING_DATA
        assert "error" in capsys.readouterr().err

    def test_empty_data_dir_exits_three(self, capsys, tmp_path):
        assert run(["validate", "--data-dir", str(tmp_path)]) == \
            cli.EXIT_MISSING_DATA

    @pytest.mark.parametrize("kind", ["undecodable", "directory"])
    def test_unreadable_subject_file_exits_three(self, capsys, tmp_path,
                                                 kind):
        # input, not output: exit 3, with the file named and no traceback
        path = tmp_path / "subject101.dat"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe" + make_line(0.01, 1).encode())
        assert run(["validate", "--data-dir", str(tmp_path)]) == \
            cli.EXIT_MISSING_DATA
        assert "subject101.dat" in capsys.readouterr().err

    def test_malformed_subject_file_is_named(self, capsys, tmp_path):
        # of nine subject files, the error names the bad one and its line
        self.fake_data_dir(tmp_path, range(1, 10))
        bad = tmp_path / "subject103.dat"
        bad.write_text("1 2 3\n")
        assert run(["validate", "--data-dir", str(tmp_path)]) == \
            cli.EXIT_MISSING_DATA
        err = capsys.readouterr().err
        assert f"{bad}: line 1: expected 54 columns, got 3" in err
        assert "Traceback" not in err

    @staticmethod
    def fake_data_dir(path, users):
        """Subject files of four samples each (Lying, Lying, transient,
        Sitting), user 2's under Protocol/ as in the PAMAP2 archive."""
        for user in users:
            where = path / "Protocol" if user == 2 else path
            where.mkdir(exist_ok=True)
            lines = [make_line(0.01 * (i + 1), a)
                     for i, a in enumerate([1, 1, 0, 2])]
            (where / f"subject10{user}.dat").write_text("\n".join(lines))

    def test_counts_off_the_reference_fail(self, capsys, tmp_path):
        self.fake_data_dir(tmp_path, [1, 2])
        assert run(["validate", "--data-dir", str(tmp_path)]) == cli.EXIT_ERROR
        out = capsys.readouterr().out.splitlines()
        assert [f"user {u}: MISSING subject file" for u in range(3, 10)] \
            == out[:7]
        ref = dataset.REFERENCE_COUNTS[2]
        user2 = out.index("user 2: raw=4 filtered=3 FAIL")
        assert out[user2 + 1:user2 + 4] == [
            f"  Lying: got 2, expected {ref[1]}",
            f"  Sitting: got 1, expected {ref[2]}",
            f"  Standing: got 0, expected {ref[3]}"]
        assert "user 1: raw=4 filtered=3 FAIL" in out
        assert out[-2:] == [f"total raw samples: 8 (reference "
                            f"{dataset.TOTAL_RAW_SAMPLES})", "RESULT: FAIL"]

    def test_counts_equal_to_the_reference_pass(self, capsys, tmp_path,
                                               monkeypatch):
        self.fake_data_dir(tmp_path, range(1, 10))
        counts = dict.fromkeys(dataset.PROTOCOL_ACTIVITIES, 0)
        counts.update({1: 2, 2: 1})
        monkeypatch.setattr(cli, "REFERENCE_COUNTS",
                            dict.fromkeys(range(1, 10), counts))
        monkeypatch.setattr(cli, "TOTAL_RAW_SAMPLES", 36)
        assert run(["validate", "--data-dir", str(tmp_path)]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out == [f"user {u}: raw=4 filtered=3 PASS"
                       for u in range(1, 10)] + [
            "total raw samples: 36 (reference 36)", "RESULT: PASS"]


class TestGridValidation:
    def test_study_grid(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--seed", "0", "--out", "o", "--grid", "study",
             "--windows", "73"])  # the study grid ignores --windows
        assert cli._parse_grid(args) == (list(evaluation.STUDY_WINDOWS),
                                         list(evaluation.STUDY_OVERLAPS))

    def test_off_grid_window_rejected(self, capsys, spec_file, tmp_path):
        code = run(["sweep", "--synthetic", spec_file, "--seed", "0",
                    "--windows", "73", "--overlaps", "0.0",
                    "--out", str(tmp_path)])
        assert code == cli.EXIT_BAD_GRID
        assert "allow-any-grid" in capsys.readouterr().err

    def test_off_grid_overlap_rejected(self, capsys, spec_file, tmp_path):
        code = run(["sweep", "--synthetic", spec_file, "--seed", "0",
                    "--windows", "100", "--overlaps", "0.35",
                    "--out", str(tmp_path)])
        assert code == cli.EXIT_BAD_GRID

    def test_unparseable_grid(self, capsys, spec_file, tmp_path):
        code = run(["sweep", "--synthetic", spec_file, "--seed", "0",
                    "--windows", "abc", "--overlaps", "0.0",
                    "--out", str(tmp_path)])
        assert code == cli.EXIT_BAD_GRID

    def test_overlap_one_rejected_even_with_override(self, capsys, spec_file,
                                                     tmp_path):
        code = run(["sweep", "--synthetic", spec_file, "--seed", "0",
                    "--windows", "100", "--overlaps", "1.0",
                    "--allow-any-grid", "--out", str(tmp_path)])
        assert code == cli.EXIT_BAD_GRID


    def test_window_below_two_rejected_before_output(self, capsys, spec_file,
                                                     tmp_path):
        out = tmp_path / "out"
        code = run(["sweep", "--synthetic", spec_file, "--seed", "0",
                    "--windows", "1", "--overlaps", "0.0",
                    "--allow-any-grid", "--out", str(out)])
        assert code == cli.EXIT_BAD_GRID
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


    @pytest.mark.parametrize("grid", [
        ["--windows", "50,50", "--overlaps", "0.5"],
        ["--windows", "50", "--overlaps", "0.5,0.5"]],
        ids=["windows", "overlaps"])
    @pytest.mark.parametrize("command", [["sweep", "--seed", "0"],
                                         ["profile"]], ids=["sweep", "profile"])
    def test_repeated_grid_value_exits_two(self, capsys, spec_file, tmp_path,
                                           command, grid):
        out = tmp_path / "out"
        code = run(command + ["--synthetic", spec_file, "--allow-any-grid",
                              "--out", str(out)] + grid)
        assert code == cli.EXIT_BAD_GRID
        assert "repeated" in capsys.readouterr().err
        assert not out.exists()


class TestSynth:
    def test_writes_one_file_per_user(self, capsys, spec_file, tmp_path):
        assert run(["synth", "--spec", spec_file,
                    "--out", str(tmp_path)]) == 0
        names = sorted(os.listdir(tmp_path))
        assert names == ["synthetic001.dat", "synthetic002.dat"]

    def test_round_trips_through_parser(self, spec_file, tmp_path):
        run(["synth", "--spec", spec_file, "--out", str(tmp_path)])
        stream = dataset.parse_subject_file(
            str(tmp_path / "synthetic002.dat"), 2)
        assert len(stream) == 3 * 400

    def test_bad_spec_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1}')
        assert run(["synth", "--spec", str(bad),
                    "--out", str(tmp_path)]) == cli.EXIT_MISSING_DATA


class TestInputFiles:
    """A missing or non-JSON input file exits with its documented code."""

    def test_missing_synthetic_spec_exits_three(self, capsys, tmp_path):
        code = run(["eval", "--synthetic", str(tmp_path / "missing.json"),
                    "--user", "1", "--window", "50", "--overlap", "0.0"])
        assert code == cli.EXIT_MISSING_DATA
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("content", [
        None, "not json {",
        json.dumps(dict(SPEC, sample_rate=0)),
        json.dumps(dict(SPEC, sample_rate=-100.0)),
        json.dumps(dict(SPEC, sample_rate=float("nan"))),
        json.dumps(dict(SPEC, users=SPEC["users"] + [{"id": 1,
                                                      "offset": 0.5}])),
        *(json.dumps(_first_class(**{field: value}))
          for field, value in BAD_CLASS_FIELDS),
        json.dumps(_first_class(label=2)),
        json.dumps(dict(SPEC, seed=-1)),
        json.dumps(dict(SPEC, users=[{"id": -2, "offset": 0.0},
                                     *SPEC["users"][1:]])),
        json.dumps(dict(SPEC, classes=SPEC["classes"][:1])),
        json.dumps(dict(SPEC, samples_per_class=0))],
        ids=["missing", "not-json", "rate0", "rate-negative", "rate-nan",
             "repeated-user", *(f"{field}-{value}"
                                for field, value in BAD_CLASS_FIELDS),
             "repeated-label", "seed-negative", "user-negative", "one-class",
             "samples0"])
    def test_synth_spec_exits_three(self, capsys, tmp_path, content):
        spec = tmp_path / "spec.json"
        if content is not None:
            spec.write_text(content)
        code = run(["synth", "--spec", str(spec),
                    "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_MISSING_DATA
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("cfg", [dict(SPEC, sample_rate=1e-320),
                                     _first_class(frequency=1e308)],
                             ids=["rate-tiny", "frequency-huge"])
    def test_non_finite_stream_exits_three(self, capsys, tmp_path, cfg):
        # every field passes its own rule, but the streams are not finite:
        # neither command writes anything, or scores zero-filled windows
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(cfg))
        for argv in (["synth", "--spec", str(spec)],
                     ["eval", "--synthetic", str(spec), "--user", "1",
                      "--window", "10", "--overlap", "0.0"]):
            code = run(argv + ["--out", str(tmp_path / "out")])
            assert code == cli.EXIT_MISSING_DATA
            assert "non-finite" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fields", [{"label": 2}, {"noise_sigma": -1.0},
                                        {"label": 0}],
                             ids=["repeated-label", "noise-negative",
                                  "transient-label"])
    def test_eval_on_bad_class_spec_exits_three(self, capsys, tmp_path,
                                                fields):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_first_class(**fields)))
        code = run(["eval", "--synthetic", str(spec), "--user", "1",
                    "--window", "50", "--overlap", "0.0",
                    "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_MISSING_DATA
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("cfg", [
        _first_class(label=3.7), _first_class(label=float("inf")),
        _first_class(label=2**53 + 1), _first_class(label=2**63),
        dict(SPEC, seed=1.5), dict(SPEC, samples_per_class=50.5),
        dict(SPEC, users=[{"id": 1.5, "offset": 0.0}, *SPEC["users"][1:]])],
        ids=["label-fraction", "label-inf", "label-past-float64",
             "label-past-int64", "seed-fraction", "samples-fraction",
             "user-fraction"])
    def test_inexact_integer_exits_three(self, capsys, tmp_path, cfg):
        # int() would truncate 3.7 to class 3, and 2**53 + 1 would be
        # stored as 2**53 and its windows dropped as an unknown label
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(cfg))
        code = run(["eval", "--synthetic", str(spec), "--user", "2",
                    "--window", "10", "--overlap", "0.0",
                    "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_MISSING_DATA
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_integral_float_is_its_integer(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(_first_class(label=3.0), seed=1.0)))
        assert run(["eval", "--synthetic", str(spec), "--user", "2",
                    "--window", "10", "--overlap", "0.0"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "  3: n=5 " in out and "  2: n=5 " in out

    @pytest.mark.parametrize("content", [
        None, "not json {",
        '{"sampling_watts": NaN, "feature_watts": 2.0, '
        '"classification_watts": 1.5}',
        '{"sampling_watts": 0.5, "feature_watts": Infinity, '
        '"classification_watts": 1.5}'],
        ids=["missing", "not-json", "nan", "inf"])
    def test_power_model_exits_two(self, capsys, spec_file, tmp_path,
                                   content):
        power = tmp_path / "power.json"
        if content is not None:
            power.write_text(content)
        code = run(["profile", "--synthetic", spec_file, "--windows", "50",
                    "--overlaps", "0.0", "--allow-any-grid", "--reps", "1",
                    "--power-model", str(power),
                    "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_BAD_GRID
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()


class TestSweepCommand:
    def sweep_args(self, spec_file, out):
        return ["sweep", "--synthetic", spec_file, "--seed", "0",
                "--windows", "50", "--overlaps", "0.0,0.5",
                "--allow-any-grid", "--mode", "both",
                "--knn-capacity", "500", "--grace-period", "50",
                "--out", str(out)]

    def test_end_to_end(self, capsys, spec_file, tmp_path):
        assert run(self.sweep_args(spec_file, tmp_path) + ["--verbose"]) == 0
        out = capsys.readouterr().out
        assert os.path.exists(tmp_path / "long.csv")
        assert os.path.exists(tmp_path / "summary.csv")
        assert "wrote" in out
        # --verbose prints each of the 2 users x 2 overlaps x 2 modes cells
        progress = [line for line in out.splitlines()
                    if line.startswith("user ")]
        assert len(progress) == 8
        assert all(" acc=" in line for line in progress)

    def test_resume_reports_identical(self, capsys, spec_file, tmp_path):
        run(self.sweep_args(spec_file, tmp_path))
        before = (tmp_path / "summary.csv").read_bytes()
        assert run(self.sweep_args(spec_file, tmp_path) + ["--resume"]) == 0
        assert (tmp_path / "summary.csv").read_bytes() == before

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exits_two(self, capsys, spec_file, tmp_path,
                                         workers):
        code = run(self.sweep_args(spec_file, tmp_path)
                   + ["--workers", workers])
        assert code == cli.EXIT_BAD_GRID
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "cells").exists()

    @pytest.mark.parametrize("flags", [["--k", "0"], ["--workers", "0"],
                                       ["--purity", "1.5"],
                                       ["--theta", "nan"],
                                       ["--tie-threshold", "nan"]],
                             ids=["k0", "workers0", "purity1.5", "theta-nan",
                                  "tie-nan"])
    def test_rejected_sweep_leaves_no_out_dir(self, capsys, spec_file,
                                              tmp_path, flags):
        code = run(self.sweep_args(spec_file, tmp_path / "new") + flags)
        assert code == cli.EXIT_BAD_GRID
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "new").exists()

    def test_unwritable_out_exits_four(self, capsys, spec_file, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run(self.sweep_args(spec_file, blocker / "sub"))
        assert code == cli.EXIT_UNWRITABLE

    @staticmethod
    def summary_users(out):
        with open(out / "summary.csv", newline="") as fh:
            return [int(row["n_users"]) for row in csv.DictReader(fh)]

    def test_synthetic_user_9_is_summarized(self, capsys, tmp_path,
                                            monkeypatch):
        # A synthetic user 9 holds every class, so only PAMAP2's user 9,
        # which recorded rope jumping alone, leaves the summary by default.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(SPEC, users=[
            *SPEC["users"], {"id": 9, "offset": 0.2}])))
        grid = ["--seed", "0", "--windows", "10", "--overlaps", "0.0,0.5",
                "--allow-any-grid", "--mode", "both"]
        assert run(["sweep", "--synthetic", str(spec), *grid,
                    "--out", str(tmp_path / "synthetic")]) == cli.EXIT_OK
        assert self.summary_users(tmp_path / "synthetic") == [3] * 4
        streams = dataset.generate_synthetic(
            dataset.SyntheticSpec.from_file(str(spec)))
        monkeypatch.setattr(cli, "load_pamap2", lambda data_dir: (
            [(len(s), s) for s in streams], []))
        for flags, n_users in [([], 2), (["--include-user9"], 3)]:
            out = tmp_path / f"pamap2_{n_users}"
            assert run(["sweep", "--data-dir", str(tmp_path), *grid, *flags,
                        "--out", str(out)]) == cli.EXIT_OK
            assert self.summary_users(out) == [n_users] * 4


class TestEvalCommand:
    def test_single_cell_with_audit(self, capsys, spec_file, tmp_path):
        code = run(["eval", "--synthetic", spec_file, "--user", "2",
                    "--window", "50", "--overlap", "0.5", "--mode", "semi",
                    "--knn-capacity", "500", "--grace-period", "50",
                    "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out and "self_updates=" in out
        audit = (tmp_path / "audit_u2.csv").read_text().splitlines()
        assert audit[0] == "index,true_label,predicted_label,confidence,updated"
        assert len(audit) > 1

    EVAL = ["eval", "--user", "2", "--window", "50", "--overlap", "0.5",
            "--mode", "sup", "--knn-capacity", "500", "--grace-period", "50"]

    def test_synthetic_classes_print_bare_labels(self, capsys, spec_file):
        # a synthetic class is not the PAMAP2 activity of the same number
        assert run(self.EVAL + ["--synthetic", spec_file]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split(":")[0] for line in lines] == ["  1", "  2", "  3"]

    def test_pamap2_classes_print_activity_names(self, capsys, spec_file,
                                                 tmp_path, monkeypatch):
        streams = dataset.generate_synthetic(
            dataset.SyntheticSpec.from_file(spec_file))
        monkeypatch.setattr(cli, "load_pamap2", lambda data_dir: (
            [(len(s), s) for s in streams], []))
        assert run(self.EVAL + ["--data-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert ([line.split(":")[0] for line in lines]
                == ["  Lying", "  Sitting", "  Standing"])

    def test_missing_subject_files_are_named(self, capsys, spec_file,
                                             tmp_path):
        # only users 1 and 2 have subject files: the others are named on
        # stderr, and the cell is still scored
        spec = dataset.SyntheticSpec.from_file(spec_file)
        for stream in dataset.generate_synthetic(spec):
            (tmp_path / f"subject10{stream.user_id}.dat").write_text(
                dataset.serialize_stream(stream))
        assert run(self.EVAL + ["--data-dir", str(tmp_path)]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ("warning: missing subject files for users "
                                "[3, 4, 5, 6, 7, 8, 9]\n")
        assert "accuracy=" in captured.out

    def test_bad_learner_param_exits_two(self, capsys, spec_file):
        code = run(["eval", "--synthetic", spec_file, "--user", "2",
                    "--window", "50", "--overlap", "0.0", "--k", "0"])
        assert code == cli.EXIT_BAD_GRID
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flags", [["--delta", "0"],
                                       ["--delta", "0", "--window", "99999"],
                                       ["--grace-period", "0"],
                                       ["--grace-period", "-5"],
                                       ["--purity", "1.5"],
                                       ["--purity", "-1"],
                                       ["--theta", "nan"],
                                       ["--tie-threshold", "nan"]],
                             ids=["delta0", "delta0-no-windows", "grace0", "grace-5", "purity1.5",
                                  "purity-1", "theta-nan", "tie-nan"])
    def test_out_of_range_parameter_exits_two(self, capsys, spec_file, flags):
        code = run(["eval", "--synthetic", spec_file, "--user", "2",
                    "--window", "50", "--overlap", "0.0"] + flags)
        assert code == cli.EXIT_BAD_GRID
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_user_exits_three(self, capsys, spec_file, tmp_path):
        out = tmp_path / "new"
        code = run(["eval", "--synthetic", spec_file, "--user", "7",
                    "--window", "50", "--overlap", "0.0", "--out", str(out)])
        assert code == cli.EXIT_MISSING_DATA
        assert capsys.readouterr().err == "error: no stream for user 7\n"
        assert not out.exists()


    @pytest.mark.parametrize("command", [
        ["eval", "--window", "50", "--overlap", "0.0"],
        ["profile", "--windows", "50", "--overlaps", "0.0",
         "--allow-any-grid"]], ids=["eval", "profile"])
    def test_unknown_user_is_refused_before_featurizing(
            self, capsys, monkeypatch, spec_file, tmp_path, command):
        def featurize(*args):
            raise AssertionError("featurized before the user was checked")

        monkeypatch.setattr(evaluation, "featurize", featurize)
        out = tmp_path / "new"
        code = run(command + ["--synthetic", spec_file, "--user", "7",
                              "--out", str(out)])
        assert code == cli.EXIT_MISSING_DATA
        assert capsys.readouterr().err == "error: no stream for user 7\n"
        assert not out.exists()

class TestProfileCommand:
    def test_grid_with_power_model(self, capsys, spec_file, tmp_path):
        power = tmp_path / "power.json"
        power.write_text('{"sampling_watts": 0.5, "feature_watts": 2.0, '
                         '"classification_watts": 1.5}')
        code = run(["profile", "--synthetic", spec_file,
                    "--windows", "50", "--overlaps", "0.0,0.5",
                    "--allow-any-grid", "--reps", "3",
                    "--knn-capacity", "500", "--grace-period", "50",
                    "--power-model", str(power), "--out", str(tmp_path)])
        assert code == 0
        timing = (tmp_path / "timing.csv").read_text().splitlines()
        assert len(timing) == 3  # header + 2 cells
        heat = (tmp_path / "energy_heatmap.csv").read_text().splitlines()
        assert heat[0].startswith("window_size,overlap,joules")
        assert len(heat) == 3

    @pytest.mark.parametrize("flags,code", [
        (["--k", "0"], cli.EXIT_BAD_GRID),
        (["--purity", "1.5"], cli.EXIT_BAD_GRID),
        (["--reps", "0"], cli.EXIT_BAD_GRID),
        (["--user", "7"], cli.EXIT_MISSING_DATA)],
        ids=["k0", "purity1.5", "reps0", "user7"])
    def test_rejected_profile_leaves_no_out_dir(self, capsys, spec_file,
                                                tmp_path, flags, code):
        out = tmp_path / "new"
        assert run(["profile", "--synthetic", spec_file, "--windows", "50",
                    "--overlaps", "0.0", "--allow-any-grid",
                    "--out", str(out)] + flags) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--synthetic", "SPEC", "--user", "2", "--window", "50",
     "--overlap", "0.0"],
    ["profile", "--synthetic", "SPEC", "--windows", "50", "--overlaps", "0.0",
     "--allow-any-grid", "--reps", "1"],
    ["synth", "--spec", "SPEC"]], ids=["eval", "profile", "synth"])
def test_out_under_a_file_exits_four(capsys, spec_file, tmp_path, argv):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = [spec_file if a == "SPEC" else a for a in argv]
    assert run(argv + ["--out", str(blocker / "sub")]) == cli.EXIT_UNWRITABLE
    assert capsys.readouterr().err.startswith("error: ")
