import dataclasses
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import two_regime_series
from saeti.cli import build_parser, main
from saeti.core_ts import TimeSeries, read_csv, write_csv
from saeti.training import TrainConfig

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run the whole command workflow once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    ts = two_regime_series(n=1600, block=400)
    write_csv(ts, root / "full.csv")
    assert main(["train", "--input", str(root / "full.csv"),
                 "--output", str(root / "model.bundle"),
                 "--m", "16", "--k", "2", "--max-epochs", "3"]) == 0
    assert main(["generate-gaps", "--input", str(root / "full.csv"),
                 "--output", str(root / "gapped.csv"),
                 "--scenario", "blackout", "--length", "10",
                 "--seed", "7"]) == 0
    assert main(["impute", "--input", str(root / "gapped.csv"),
                 "--bundle", str(root / "model.bundle"),
                 "--output", str(root / "imputed.csv"),
                 "--report", str(root / "report.json"),
                 "--truth", str(root / "full.csv")]) == 0
    return root


def test_snippets_command(tmp_path, capsys):
    ts = two_regime_series(n=800, block=200)
    write_csv(ts, tmp_path / "x.csv")
    rc = main(["snippets", "--input", str(tmp_path / "x.csv"),
               "--output", str(tmp_path / "s.json"), "--m", "16", "--k", "2"])
    assert rc == 0
    payload = json.loads((tmp_path / "s.json").read_text())
    assert len(payload) == 2
    assert len(payload[0]["items"]) == 2
    out = capsys.readouterr().out
    assert "frac=" in out


def test_train_writes_bundle_and_history(workdir):
    assert (workdir / "model.bundle").stat().st_size > 0
    lines = (workdir / "model.bundle.history.csv").read_text().splitlines()
    assert lines[0] == "model,epoch,train_loss,val_loss,val_accuracy"
    assert any(line.startswith("recognizer,1,") for line in lines)
    assert any(line.startswith("reconstructor,") for line in lines)


def test_history_losses_parse_as_plain_floats(workdir):
    lines = (workdir / "model.bundle.history.csv").read_text().splitlines()
    for line in lines[1:]:
        model, _, train_loss, val_loss, val_accuracy = line.split(",")
        float(train_loss)
        float(val_loss)
        if model == "recognizer":
            float(val_accuracy)


@pytest.mark.parametrize("command", ["impute", "train"])
def test_non_finite_cells_exit_2(workdir, tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    text = (workdir / "gapped.csv").read_text().splitlines()
    cells = text[5].split(",")
    cells[1] = "inf"
    text[5] = ",".join(cells)
    bad.write_text("\n".join(text) + "\n")
    if command == "impute":
        args = ["impute", "--input", str(bad), "--bundle", str(workdir / "model.bundle"),
                "--output", str(tmp_path / "out.csv")]
    else:
        args = ["train", "--input", str(bad), "--output", str(tmp_path / "b"),
                "--m", "16", "--k", "2", "--max-epochs", "1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{bad}:6: column 2 (s2): non-finite value inf" in err


def test_repeated_column_names_exit_2(workdir, tmp_path, capsys):
    bad = tmp_path / "twice.csv"
    text = (workdir / "gapped.csv").read_text().splitlines()
    text[0] = "s1,s1"
    bad.write_text("\n".join(text) + "\n")
    assert main(["impute", "--input", str(bad), "--bundle", str(workdir / "model.bundle"),
                 "--output", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:1: coordinate names must be distinct, repeated: ['s1']" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("swapped", ["input", "truth"])
def test_reordered_coordinates_exit_2_before_any_model_runs(workdir, tmp_path, capsys,
                                                            monkeypatch, swapped):
    paths = {"input": workdir / "gapped.csv", "truth": workdir / "full.csv"}
    ts = read_csv(paths[swapped])
    paths[swapped] = tmp_path / "swapped.csv"
    write_csv(TimeSeries(ts.values[:, ::-1], ts.names[::-1]), paths[swapped])
    monkeypatch.setattr("saeti.pipeline.infer", lambda *a, **k: pytest.fail("a model ran"))
    assert main(["impute", "--input", str(paths["input"]), "--truth", str(paths["truth"]),
                 "--bundle", str(workdir / "model.bundle"),
                 "--output", str(tmp_path / "out.csv")]) == 2
    what = "series" if swapped == "input" else "truth"
    assert (f"{what} has d=2 coordinates ['s2', 's1'], bundle expects d=2 ['s1', 's2']"
            in capsys.readouterr().err)
    assert not (tmp_path / "out.csv").exists()


def test_non_numeric_cell_exits_2(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    text = (workdir / "gapped.csv").read_text().splitlines()
    cells = text[5].split(",")
    cells[1] = "abc"
    text[5] = ",".join(cells)
    bad.write_text("\n".join(text) + "\n")
    assert main(["impute", "--input", str(bad), "--bundle", str(workdir / "model.bundle"),
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert f"{bad}:6: column 2 (s2): not a number: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("line", [1, 3])
@pytest.mark.parametrize("command", ["impute", "train"])
def test_over_long_cell_exits_2_with_file_and_line(workdir, tmp_path, capsys, command, line):
    bad = tmp_path / "long.csv"
    text = (workdir / "gapped.csv").read_text().splitlines()
    text[line - 1] = "1" * 200_000
    bad.write_text("\n".join(text) + "\n")
    if command == "impute":
        args = ["impute", "--input", str(bad), "--bundle", str(workdir / "model.bundle"),
                "--output", str(tmp_path / "out.csv")]
    else:
        args = ["train", "--input", str(bad), "--output", str(tmp_path / "out.csv"),
                "--m", "16", "--k", "2", "--max-epochs", "1"]
    assert main(args) == 2
    assert f"{bad}:{line}: field larger than field limit" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def _split_bundle(workdir):
    """The workdir bundle as (header dict, header end offset, whole file)."""
    blob = (workdir / "model.bundle").read_bytes()
    (n,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16:16 + n]), 16 + n, blob


def _impute_with_bundle(workdir, tmp_path, blob):
    """Run ``saeti impute`` with ``blob`` as the bundle; no output may appear."""
    bundle = tmp_path / "edited.bundle"
    bundle.write_bytes(blob)
    rc = main(["impute", "--input", str(workdir / "gapped.csv"), "--bundle", str(bundle),
               "--output", str(tmp_path / "out.csv")])
    assert (tmp_path / "out.csv").exists() == (rc == 0)
    return rc, bundle


def _impute_with_header(workdir, tmp_path, edit):
    """Run ``saeti impute`` with the workdir bundle's header replaced."""
    header, end, blob = _split_bundle(workdir)
    raw = json.dumps(edit(header)).encode("utf-8")
    return _impute_with_bundle(workdir, tmp_path,
                               blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[end:])


def test_bundle_header_not_an_object_exits_2(workdir, tmp_path, capsys):
    rc, bundle = _impute_with_header(workdir, tmp_path, lambda header: [1, 2])
    assert rc == 2
    assert f"{bundle}: bundle header is not a JSON object" in capsys.readouterr().err


def test_bundle_header_field_of_wrong_type_exits_2(workdir, tmp_path, capsys):
    def edit(header):
        header["config"]["m"] = "16"
        return header
    rc, bundle = _impute_with_header(workdir, tmp_path, edit)
    assert rc == 2
    assert f"{bundle}: bundle header has a field of the wrong type" in capsys.readouterr().err


def _set_snippets_shape(shape):
    def edit(header):
        entry = next(e for e in header["arrays"] if e[0] == "snippets")
        entry[1] = shape
        return header
    return edit


def _set_names(names):
    def edit(header):
        header["config"]["names"] = names
        return header
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda h: {**h, "format": 1}, "unsupported bundle format 1"),
    (lambda h: {**h, "format": 2}, "unsupported bundle format 2"),
    (_set_snippets_shape([1, 2, 16]), "bundle arrays do not match its config"),
    (_set_snippets_shape([2, 2, 17]), "bundle arrays do not match its config"),
    (_set_names("xy"), "config names must be a list of strings, got 'xy'"),
    (_set_names([1, 2]), "config names must be a list of strings, got [1, 2]"),
    (_set_names([None, "a"]), "config names must be a list of strings, got [None, 'a']"),
    (_set_names(["a", "a"]), "bundle names repeat a coordinate: ['a', 'a']"),
], ids=["format-1", "format-2", "snippets-d-1", "snippets-m+1", "names-str", "names-int",
        "names-null", "names-repeated"])
def test_malformed_bundle_exits_2_without_output(workdir, tmp_path, capsys, edit, message):
    rc, _ = _impute_with_header(workdir, tmp_path, edit)
    assert rc == 2
    assert message in capsys.readouterr().err


def test_bundle_asking_for_a_larger_model_exits_2_before_allocating(workdir, tmp_path, capsys):
    """A header whose config implies far more bytes than the file holds is
    refused from the config alone: nothing near the model's size is allocated."""
    header, end, blob = _split_bundle(workdir)
    header["config"].update(m=1000, latent=10)  # ~110 MB of parameters
    raw = json.dumps(header).encode("utf-8")
    blob = blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[end:]
    tracemalloc.start()
    try:
        rc, _ = _impute_with_bundle(workdir, tmp_path, blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < len(blob) + 4 * 2**20
    assert "truncated bundle" in capsys.readouterr().err


@pytest.mark.parametrize("name, where, value", [
    ("norm.mins", 0, np.nan),
    ("norm.maxs", -1, np.inf),
    ("snippets", 0, np.nan),
    ("snippets", -1, -np.inf),
])
def test_non_finite_bundle_value_exits_2_without_output(workdir, tmp_path, capsys,
                                                        name, where, value):
    header, offset, blob = _split_bundle(workdir)
    for entry_name, shape in header["arrays"]:
        size = int(np.prod(shape))
        if entry_name == name:
            break
        offset += 8 * size
    offset += 8 * (where % size)
    bad = blob[:offset] + np.array([value], dtype="<f8").tobytes() + blob[offset + 8:]
    rc, _ = _impute_with_bundle(workdir, tmp_path, bad)
    assert rc == 2
    assert f"bundle block {name} holds non-finite values" in capsys.readouterr().err


def _with_cells(workdir, path, cells):
    """The workdir's full.csv with ``{(line, column): text}`` cells replaced, 1-based."""
    text = (workdir / "full.csv").read_text().splitlines()
    for (line, column), cell in cells.items():
        row = text[line - 1].split(",")
        row[column - 1] = cell
        text[line - 1] = ",".join(row)
    path.write_text("\n".join(text) + "\n")
    return path


def test_observed_range_wider_than_float64_exits_2_without_a_bundle(workdir, tmp_path, capsys):
    bad = _with_cells(workdir, tmp_path / "wide.csv", {(6, 2): "1.7e308", (9, 2): "-1.7e308"})
    assert main(["train", "--input", str(bad), "--output", str(tmp_path / "b"),
                 "--m", "16", "--k", "2", "--max-epochs", "1"]) == 2
    assert ("coordinate 2: range -1.7e+308 to 1.7e+308 overflows float64"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [bad]


def test_bundle_range_wider_than_float64_exits_2_without_output(workdir, tmp_path, capsys):
    header, offset, blob = _split_bundle(workdir)
    wide = np.array([-1.7e308, -1.7e308, 1.7e308, 1.7e308], dtype="<f8").tobytes()
    rc, _ = _impute_with_bundle(workdir, tmp_path, blob[:offset] + wide + blob[offset + 32:])
    assert rc == 2
    assert ("coordinate 1: range -1.7e+308 to 1.7e+308 overflows float64"
            in capsys.readouterr().err)


def test_value_too_far_outside_the_bundle_range_exits_2_without_output(workdir, tmp_path,
                                                                       capsys):
    bad = _with_cells(workdir, tmp_path / "far.csv", {(6, 2): "1.7e308"})
    out = tmp_path / "out.csv"
    assert main(["impute", "--input", str(bad), "--bundle", str(workdir / "model.bundle"),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "row 5, column 2 (s2): value 1.7e+308 lies too far outside the bundle's range" in err
    assert "non-finite" not in err
    assert not out.exists()


def test_generate_gaps_artifacts(workdir):
    gapped = read_csv(workdir / "gapped.csv")
    assert gapped.n_missing == 20
    mask_lines = (workdir / "gapped.mask.csv").read_text().splitlines()
    assert mask_lines[0] == "row,col"
    assert len(mask_lines) == 21
    rows = {int(line.split(",")[0]) for line in mask_lines[1:]}
    assert len(rows) == 10  # ten steps, both coordinates


def test_impute_fills_and_reports(workdir):
    imputed = read_csv(workdir / "imputed.csv")
    assert imputed.n_missing == 0
    gapped = read_csv(workdir / "gapped.csv")
    obs = gapped.mask
    assert np.array_equal(imputed.values[obs], gapped.values[obs])
    report = json.loads((workdir / "report.json").read_text())
    assert report["imputed_points"] == 20
    assert "overall" in report["rmse"]


def test_evaluate_with_baselines(workdir, capsys):
    rc = main(["evaluate", "--imputed", str(workdir / "imputed.csv"),
               "--truth", str(workdir / "full.csv"),
               "--mask", str(workdir / "gapped.mask.csv"),
               "--gapped", str(workdir / "gapped.csv")])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["positions"] == 20
    assert set(result["rmse"]) == {"imputed", "baseline_mean", "baseline_linear"}


def test_evaluate_with_gap_at_scored_position_exits_2(tmp_path, capsys):
    truth = TimeSeries.from_values(np.array([[1.0], [2.0], [3.0]]))
    imputed = TimeSeries.from_values(np.array([[1.0], [np.nan], [3.0]]))
    write_csv(truth, tmp_path / "truth.csv")
    write_csv(imputed, tmp_path / "imputed.csv")
    (tmp_path / "mask.csv").write_text("row,col\n2,1\n3,1\n")
    rc = main(["evaluate", "--imputed", str(tmp_path / "imputed.csv"),
               "--truth", str(tmp_path / "truth.csv"), "--mask", str(tmp_path / "mask.csv"),
               "--output", str(tmp_path / "scores.json")])
    assert rc == 2
    assert "imputed series is still missing 1 flagged positions" in capsys.readouterr().err
    assert not (tmp_path / "scores.json").exists()


def test_rerun_is_byte_identical(workdir):
    out2 = workdir / "imputed2.csv"
    rep2 = workdir / "report2.json"
    assert main(["impute", "--input", str(workdir / "gapped.csv"),
                 "--bundle", str(workdir / "model.bundle"),
                 "--output", str(out2), "--report", str(rep2),
                 "--truth", str(workdir / "full.csv")]) == 0
    assert out2.read_bytes() == (workdir / "imputed.csv").read_bytes()
    assert rep2.read_bytes() == (workdir / "report.json").read_bytes()


def test_train_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["train", "--input", "x.csv", "--output", "x.bundle",
                                      "--m", "16", "--k", "2"])
    fields = dataclasses.fields(TrainConfig)
    assert len(fields) == 8
    for field in fields:
        expected = {"m": 16, "k": 2}.get(field.name, field.default)
        assert getattr(args, field.name) == expected, field.name


def test_missing_input_exits_2(tmp_path):
    rc = main(["snippets", "--input", str(tmp_path / "nope.csv"),
               "--output", str(tmp_path / "s.json"), "--m", "16", "--k", "2"])
    assert rc == 2


def test_bad_parameters_exit_2(tmp_path):
    ts = two_regime_series(n=400, block=100)
    write_csv(ts, tmp_path / "x.csv")
    rc = main(["snippets", "--input", str(tmp_path / "x.csv"),
               "--output", str(tmp_path / "s.json"), "--m", "3", "--k", "2"])
    assert rc == 2
    rc = main(["impute", "--input", str(tmp_path / "x.csv"),
               "--bundle", str(tmp_path / "x.csv"),  # not a bundle
               "--output", str(tmp_path / "y.csv")])
    assert rc == 2


def test_zero_blackout_length_exits_2(tmp_path, capsys):
    write_csv(two_regime_series(n=400, block=100), tmp_path / "x.csv")
    rc = main(["generate-gaps", "--input", str(tmp_path / "x.csv"),
               "--output", str(tmp_path / "g.csv"),
               "--scenario", "blackout", "--length", "0"])
    assert rc == 2
    assert "block length 0 out of range" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--max-epochs", "0", "max_epochs must be at least 1, got 0"),
    ("--batch-size", "0", "batch_size must be at least 1, got 0"),
    ("--patience", "0", "patience must be at least 1, got 0"),
    ("--lr", "nan", "lr must be positive and finite, got nan"),
    ("--lr", "inf", "lr must be positive and finite, got inf"),
    ("--lr", "0", "lr must be positive and finite, got 0.0"),
    ("--lr", "-0.001", "lr must be positive and finite, got -0.001"),
    ("--latent", "1000", "latent not compressive: z=1000 >= d*m=32"),
    ("--latent", "0", "latent size must be positive"),
    ("--m", "4", "window too short for three pools: m=4 < 8"),
])
def test_bad_training_flags_exit_2_before_discovery(tmp_path, capsys, monkeypatch,
                                                    flag, value, message):
    write_csv(two_regime_series(n=400, block=100), tmp_path / "x.csv")
    monkeypatch.setattr("saeti.cli.find_all_snippets", lambda *a, **k: pytest.fail("ran"))
    rc = main(["train", "--input", str(tmp_path / "x.csv"),
               "--output", str(tmp_path / "m.bundle"), "--m", "16", "--k", "2",
               flag, value])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.bundle").exists()


@pytest.mark.parametrize("argv", [
    "train --output {out}/nodir/a.bundle --m 16 --k 2",
    "train --output {out}/a.bundle --history {out}/nodir/h.csv --m 16 --k 2",
    "generate-gaps --output {out}/g.csv --mask-output {out}/nodir/m.csv --scenario mcar",
    "impute --bundle {data}/model.bundle --output {out}/i.csv --report {out}/nodir/r.json",
])
def test_output_in_missing_directory_exits_2_before_any_work(
        workdir, tmp_path, capsys, monkeypatch, argv):
    # Every command reads its input first, so snippet discovery, training,
    # gap generation and imputation are never reached either.
    monkeypatch.setattr("saeti.cli.read_csv", lambda *a, **k: pytest.fail("ran"))
    argv = argv.format(data=workdir, out=tmp_path).split()
    missing = next(arg for arg in argv if "/nodir/" in arg)
    assert main(argv[:1] + ["--input", str(workdir / "gapped.csv")] + argv[1:]) == 2
    assert f"{missing}: no such directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ell, message", [
    ("0", "inner window ell=0 is below 2"),
    ("1", "inner window ell=1 is below 2"),
    ("-3", "inner window ell=-3 is below 2"),
    ("17", "inner window ell=17 exceeds window length m=16"),
])
def test_bad_inner_window_exits_2(tmp_path, capsys, ell, message):
    write_csv(two_regime_series(n=400, block=100), tmp_path / "x.csv")
    rc = main(["snippets", "--input", str(tmp_path / "x.csv"),
               "--output", str(tmp_path / "s.json"), "--m", "16", "--k", "2",
               "--ell", ell])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_non_integer_mask_cell_exits_2(workdir, tmp_path, capsys):
    mask = tmp_path / "mask.csv"
    lines = (workdir / "gapped.mask.csv").read_text().splitlines()
    lines[3] = lines[3].split(",")[0] + ",x"
    mask.write_text("\n".join(lines) + "\n")
    rc = main(["evaluate", "--imputed", str(workdir / "imputed.csv"),
               "--truth", str(workdir / "full.csv"), "--mask", str(mask)])
    assert rc == 2
    assert f"{mask}:4: not an integer: 'x'" in capsys.readouterr().err


def test_undecodable_or_over_long_csv_exits_2_naming_the_file(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"s1,s2\n0.5,\xff\n")
    assert main(["impute", "--input", str(bad), "--bundle", str(workdir / "model.bundle"),
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert (f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 10"
            in capsys.readouterr().err)
    mask = tmp_path / "mask.csv"
    mask.write_bytes(b"row,col\n\xff,1\n")
    assert main(["evaluate", "--imputed", str(workdir / "imputed.csv"),
                 "--truth", str(workdir / "full.csv"), "--mask", str(mask)]) == 2
    assert (f"error: {mask}: 'utf-8' codec can't decode byte 0xff in position 8"
            in capsys.readouterr().err)
    mask.write_text("row,col\n1,1\n" + "1" * 200_000 + ",1\n")
    assert main(["evaluate", "--imputed", str(workdir / "imputed.csv"),
                 "--truth", str(workdir / "full.csv"), "--mask", str(mask)]) == 2
    assert f"error: {mask}:3: field larger than field limit" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_files_are_utf_8_under_an_ascii_locale(tmp_path):
    """A non-ASCII coordinate name reads and writes as UTF-8 whatever the locale."""
    ts = two_regime_series(n=400, block=100)
    write_csv(TimeSeries(ts.values, names=("température", "s2")), tmp_path / "x.csv")
    env = dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from saeti.cli import main; sys.exit(main(sys.argv[1:]))",
         "generate-gaps", "--input", str(tmp_path / "x.csv"), "--output", str(tmp_path / "g.csv"),
         "--scenario", "blackout", "--seed", "3"], env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "g.csv").read_bytes().startswith("température,s2\n".encode("utf-8"))
    assert read_csv(tmp_path / "g.csv").names == ("température", "s2")


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("scenario, flag, value", [
    ("mcar", "--length", "20"),
    ("blackout", "--rate", "0.1"),
    ("ts-nbr", "--rate", "0.1"),
])
def test_generate_gaps_rejects_an_option_its_scenario_does_not_use(tmp_path, capsys,
                                                                   scenario, flag, value):
    write_csv(two_regime_series(n=400, block=100), tmp_path / "x.csv")
    rc = main(["generate-gaps", "--input", str(tmp_path / "x.csv"),
               "--output", str(tmp_path / "g.csv"), "--scenario", scenario, flag, value])
    assert rc == 2
    assert f"{flag} does not apply to the {scenario} scenario" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_mcar_rate_defaults_to_a_quarter(tmp_path):
    write_csv(two_regime_series(n=400, block=100), tmp_path / "x.csv")
    for name, rate in (("default", []), ("quarter", ["--rate", "0.25"])):
        assert main(["generate-gaps", "--input", str(tmp_path / "x.csv"),
                     "--output", str(tmp_path / f"{name}.csv"), "--scenario", "mcar",
                     "--seed", "3", *rate]) == 0
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "quarter.csv").read_bytes()
    assert read_csv(tmp_path / "default.csv").n_missing >= 0.25 * 800


def test_mcar_scenario_via_cli(tmp_path):
    ts = two_regime_series(n=800, block=200)
    values = ts.values.copy()
    values[::2, 1], values[1::4, 1] = -0.0, 0.0  # equal as floats, printed apart
    write_csv(TimeSeries(values, ts.names), tmp_path / "x.csv")
    rc = main(["generate-gaps", "--input", str(tmp_path / "x.csv"),
               "--output", str(tmp_path / "g.csv"),
               "--scenario", "mcar", "--rate", "0.2", "--seed", "3",
               "--mask-output", str(tmp_path / "m.csv")])
    assert rc == 0
    gapped = read_csv(tmp_path / "g.csv")
    assert gapped.n_missing / gapped.mask.size >= 0.2
    assert (tmp_path / "m.csv").exists()
    cells = [[line.split(",") for line in (tmp_path / name).read_text().splitlines()]
             for name in ("x.csv", "g.csv")]
    kept = [(a, b) for row_x, row_g in zip(*cells) for a, b in zip(row_x, row_g) if b]
    assert all(a == b for a, b in kept) and {"0.0", "-0.0"} <= {b for _, b in kept}


@pytest.mark.parametrize("output, mask", [("run.v2/gapped", "run.v2/gapped.mask.csv"),
                                          ("run.v2/gapped.csv", "run.v2/gapped.mask.csv")])
def test_default_mask_path_takes_the_extension_from_the_file_name(tmp_path, output, mask):
    write_csv(two_regime_series(n=400, block=100), tmp_path / "x.csv")
    (tmp_path / "run.v2").mkdir()
    rc = main(["generate-gaps", "--input", str(tmp_path / "x.csv"),
               "--output", str(tmp_path / output), "--scenario", "mcar", "--seed", "3"])
    assert rc == 0
    assert sorted(p.name for p in (tmp_path / "run.v2").iterdir()) == sorted(
        [Path(output).name, Path(mask).name])


def _cli_with_blas_threads(argv, threads):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from saeti.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """Snippet JSON and bundle bytes match under one and two BLAS threads.

    The noisy n=4800 history is large enough for the snippet search's
    matrix products to split across threads, which changes the last bits
    of some distances; the outputs must not change.
    """
    ts = two_regime_series(n=4800, block=400)
    noise = 0.01 * np.random.default_rng(0).normal(size=ts.values.shape)
    write_csv(TimeSeries.from_values(ts.values + noise, names=ts.names), tmp_path / "x.csv")
    outputs = {}
    for threads in (1, 2):
        snippets, bundle = tmp_path / f"s{threads}.json", tmp_path / f"b{threads}.bundle"
        _cli_with_blas_threads(["snippets", "--input", str(tmp_path / "x.csv"),
                                "--output", str(snippets), "--m", "16", "--k", "2"], threads)
        _cli_with_blas_threads(["train", "--input", str(tmp_path / "x.csv"),
                                "--output", str(bundle), "--m", "16", "--k", "2",
                                "--max-epochs", "1"], threads)
        outputs[threads] = (snippets.read_bytes(), bundle.read_bytes())
    assert outputs[1][0] == outputs[2][0]
    assert outputs[1][1] == outputs[2][1]
