"""Command-line interface: pipeline flow, exit codes, determinism, config."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpforecast import baseline, cli, forest, ingest, modelio, splitkernel
from kpforecast.cli import main
from kpforecast.fusion import FusedDataset

SMALL_LAGS = [
    "--solar-lookback-minutes", "60",
    "--solar-step-minutes", "10",
    "--dst-lookback-hours", "2",
    "--kp-lookback-hours", "6",
]


@pytest.fixture()
def sources(tmp_path):
    """Small synthetic source CSVs plus handy paths."""
    out = tmp_path / "data"
    assert main(["synth", "--seed", "4", "--days", "10",
                 "--out", str(out)]) == 0
    return {
        "dir": tmp_path,
        "solar": out / "solar_wind.csv",
        "dst": out / "dst.csv",
        "kp": out / "kp.csv",
    }


def _fuse_args(sources, out):
    return [
        "fuse",
        "--solar-wind", str(sources["solar"]),
        "--dst", str(sources["dst"]),
        "--kp", str(sources["kp"]),
        *SMALL_LAGS,
        "--out", str(out),
    ]


def test_full_pipeline_flow(sources, capsys):
    root = sources["dir"]
    data = root / "fused.csv"
    assert main(_fuse_args(sources, data)) == 0
    header = data.read_text().splitlines()[0]
    assert header.endswith("target,row_time")

    model = root / "forest.json"
    assert main(["train", "--data", str(data), "--trees", "5",
                 "--seed", "1", "--threads", "1", "--out", str(model)]) == 0
    assert json.loads(model.read_text())["kind"] == "forest"

    linear = root / "linear.json"
    assert main(["train", "--data", str(data), "--model-kind", "linear",
                 "--out", str(linear)]) == 0
    assert json.loads(linear.read_text())["kind"] == "linear"

    predictions = root / "pred.csv"
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(predictions)]) == 0
    lines = predictions.read_text().splitlines()
    assert lines[0] == "row_time,predicted"
    assert len(lines) == 1 + len(data.read_text().splitlines()) - 1
    first_value = float(lines[1].split(",")[1])
    assert 0.0 <= first_value <= 9.0

    ranking = root / "importance.csv"
    assert main(["importance", "--model", str(model),
                 "--out", str(ranking)]) == 0
    assert ranking.read_text().splitlines()[0] == "feature,importance,rank"

    capsys.readouterr()
    assert main([
        "evaluate",
        "--solar-wind", str(sources["solar"]),
        "--dst", str(sources["dst"]),
        "--kp", str(sources["kp"]),
        *SMALL_LAGS,
        "--trees", "5", "--threads", "1",
        "--cutoff", "2021-01-08T00:00Z",
        "--out", str(root / "report.json"),
    ]) == 0
    text = capsys.readouterr().out
    assert "accuracy within +/-1" in text
    report = json.loads((root / "report.json").read_text())
    assert set(report) >= {"n", "accuracy_within_1", "per_bin_hits", "config"}
    assert report["config"]["cutoff"] == "2021-01-08T00:00Z"

    projections = root / "pca.csv"
    assert main(["pca", "--data", str(data), "--out", str(projections)]) == 0
    plines = projections.read_text().splitlines()
    assert plines[0] == "pc1,pc2,kp_label"
    assert len(plines) == len(lines)
    label = int(plines[1].split(",")[2])
    assert 0 <= label <= 9


def _counting(monkeypatch, owner, name: str) -> list:
    """Replace ``owner.name`` by a wrapper that appends each call's arguments to the list returned."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_compare_writes_expected_table(sources, capsys, monkeypatch):
    fuses = _counting(monkeypatch, cli, "fuse")
    fits = _counting(monkeypatch, forest, "fit")
    args = [
        "compare",
        "--solar-wind", str(sources["solar"]),
        "--dst", str(sources["dst"]),
        "--kp", str(sources["kp"]),
        *SMALL_LAGS,
        "--trees", "5", "--threads", "1", "--ks", "20,10",
        "--cutoff", "2021-01-08T00:00Z",
        "--out", str(sources["dir"] / "table.csv"),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out == (sources["dir"] / "table.csv").read_text()
    lines = out.splitlines()
    assert lines[0] == "label,accuracy"
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["RF", "RF top-20", "RF top-10", "RF top-10 L=2", "Linear"]
    for line in lines[1:]:
        assert 0.0 <= float(line.split(",")[1]) <= 1.0
    # the five plans share one fused dataset, and the RF row's full-width
    # fit also ranks the features of both top-k rows
    assert len(fuses) == 1
    assert [data.n_features for data, *_ in fits] == [fuses[0][3].feature_count, 20, 10, 10]


def test_reruns_are_byte_identical(sources, capsys):
    root = sources["dir"]
    a, b = root / "a.csv", root / "b.csv"
    assert main(_fuse_args(sources, a)) == 0
    assert main(_fuse_args(sources, b)) == 0
    assert a.read_bytes() == b.read_bytes()

    model_a, model_b = root / "ma.json", root / "mb.json"
    base = ["train", "--data", str(a), "--trees", "4", "--seed", "2"]
    assert main([*base, "--threads", "1", "--out", str(model_a)]) == 0
    assert main([*base, "--threads", "4", "--out", str(model_b)]) == 0
    assert model_a.read_bytes() == model_b.read_bytes()

    # second synth run with the same seed reproduces the files
    again = root / "again"
    assert main(["synth", "--seed", "4", "--days", "10",
                 "--out", str(again)]) == 0
    for name in ("solar_wind.csv", "dst.csv", "kp.csv"):
        assert (again / name).read_bytes() == (root / "data" / name).read_bytes()


def test_config_file_with_flag_override(sources, tmp_path, capsys):
    config = tmp_path / "fuse.conf"
    config.write_text(
        "# fusion window\n"
        f"solar-wind = {sources['solar']}\n"
        f"dst = {sources['dst']}\n"
        f"kp = {sources['kp']}\n"
        "solar-lookback-minutes = 60\n"
        "solar-step-minutes = 10\n"
        "dst-lookback-hours = 2\n"
        "kp-lookback-hours = 6\n"
        "out = from_config.csv\n"
    )
    out_flag = tmp_path / "override.csv"
    assert main(["fuse", "--config", str(config),
                 "--out", str(out_flag)]) == 0  # flag beats the file
    assert out_flag.exists()
    reference = tmp_path / "ref.csv"
    assert main(_fuse_args(sources, reference)) == 0
    assert out_flag.read_bytes() == reference.read_bytes()


def test_usage_errors_exit_1(sources, tmp_path, capsys):
    # missing required option
    assert main(["fuse", "--solar-wind", str(sources["solar"])]) == 1
    assert "missing required option" in capsys.readouterr().err
    # malformed value
    assert main(["synth", "--days", "ten", "--out", str(tmp_path / "x")]) == 1
    assert "bad value for --days" in capsys.readouterr().err
    # unknown config key
    bad = tmp_path / "bad.conf"
    bad.write_text("no_such_key = 1\n")
    assert main(["synth", "--config", str(bad),
                 "--out", str(tmp_path / "y")]) == 1
    assert "unknown config key" in capsys.readouterr().err
    # config line that is not key = value
    ugly = tmp_path / "ugly.conf"
    ugly.write_text("just some words\n")
    assert main(["synth", "--config", str(ugly),
                 "--out", str(tmp_path / "z")]) == 1
    err = capsys.readouterr().err
    assert "expected 'key = value'" in err and "ugly.conf:1" in err
    # a config key set twice, also under its other spelling
    for first, second in (("trees = 2", "trees = 3"),
                          ("solar-wind = a.csv", "solar_wind = b.csv")):
        twice = tmp_path / "twice.conf"
        twice.write_text(f"{first}\n# again\n{second}\n")
        assert main(["train", "--config", str(twice), "--data", "whatever.csv",
                     "--out", str(tmp_path / "m.json")]) == 1
        key = second.partition(" ")[0]
        assert f"twice.conf:3: {key} is already set on line 1" in capsys.readouterr().err
    # no subcommand / unknown subcommand
    assert main([]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    # bad model kind
    assert main(["train", "--data", "whatever.csv", "--model-kind", "boosted",
                 "--out", str(tmp_path / "m.json")]) == 1
    # bad thread count
    capsys.readouterr()
    assert main(["train", "--data", "whatever.csv", "--threads", "0",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "--threads" in capsys.readouterr().err
    # semantically invalid option values are usage errors, not crashes
    assert main(["train", "--data", "whatever.csv", "--trees", "0",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "n_trees" in capsys.readouterr().err


def test_data_errors_exit_2(sources, tmp_path, capsys):
    # missing input file, named in the message
    missing = tmp_path / "nope.csv"
    assert main(["fuse", "--solar-wind", str(missing),
                 "--dst", str(sources["dst"]), "--kp", str(sources["kp"]),
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "nope.csv" in capsys.readouterr().err
    # malformed measurement CSV
    corrupt = tmp_path / "corrupt.csv"
    corrupt.write_text("2021-01-01T00:00Z,not_a_number\n")
    assert main(["fuse", "--solar-wind", str(sources["solar"]),
                 "--dst", str(corrupt), "--kp", str(sources["kp"]),
                 "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "corrupt.csv" in err
    # malformed fused dataset
    broken = tmp_path / "broken.csv"
    broken.write_text("bogus header\n")
    assert main(["train", "--data", str(broken),
                 "--out", str(tmp_path / "m.json")]) == 2
    # malformed model JSON
    bad_model = tmp_path / "bad_model.json"
    bad_model.write_text("{]")
    fused = tmp_path / "f.csv"
    assert main(_fuse_args(sources, fused)) == 0
    assert main(["predict", "--model", str(bad_model), "--data", str(fused),
                 "--out", str(tmp_path / "p.csv")]) == 2
    # importance on a linear model
    linear = tmp_path / "lin.json"
    assert main(["train", "--data", str(fused), "--model-kind", "linear",
                 "--out", str(linear)]) == 0
    capsys.readouterr()
    assert main(["importance", "--model", str(linear),
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert "forest" in capsys.readouterr().err
    # a dataset of the model's width fused with another lag spec: the
    # columns differ by name, so neither model kind may predict on it
    shifted = tmp_path / "shifted.csv"
    assert main([*_fuse_args(sources, shifted),
                 "--dst-lookback-hours", "3", "--kp-lookback-hours", "3"]) == 0
    model = tmp_path / "forest.json"
    assert main(["train", "--data", str(fused), "--trees", "2",
                 "--threads", "1", "--out", str(model)]) == 0
    for trained in (model, linear):
        capsys.readouterr()
        assert main(["predict", "--model", str(trained), "--data", str(shifted),
                     "--out", str(tmp_path / "p.csv")]) == 2
        err = capsys.readouterr().err
        assert "shifted.csv" in err and trained.name in err
        assert "dst_m120" in err and "kp_m0" in err
    # a linear model with a NaN coefficient would predict NaN for every row
    tampered = json.loads(linear.read_text())
    tampered["coefficients"][0] = float("nan")
    nan_model = tmp_path / "nan_linear.json"
    nan_model.write_text(json.dumps(tampered))
    capsys.readouterr()
    assert main(["predict", "--model", str(nan_model), "--data", str(fused),
                 "--out", str(tmp_path / "nan.csv")]) == 2
    assert "non-finite coefficient" in capsys.readouterr().err
    assert not (tmp_path / "nan.csv").exists()
    # a faulty cell of the dataset is named by file and line (the header is line 1)
    lines = fused.read_text().splitlines()
    cells = lines[2].split(",")
    faults = {
        "nan_cell.csv": (",".join(["nan", *cells[1:]]), "line 3: non-finite number 'nan'"),
        "text_cell.csv": (",".join(["abc", *cells[1:]]), "line 3: unparsable number 'abc'"),
        "big_target.csv": (",".join([*cells[:-2], "12", cells[-1]]),
                           "line 3: target must lie in [0, 9], got 12.0"),
        "short_row.csv": (",".join(cells[:-1]), f"line 3: expected {len(cells)} cells"),
        "bad_time.csv": (",".join([*cells[:-1], "2021-13-01T00:00Z"]),
                         "line 3: invalid calendar instant '2021-13-01T00:00Z'"),
    }
    for name, (line, message) in faults.items():
        faulty = tmp_path / name
        faulty.write_text("\n".join([*lines[:2], line, *lines[3:]]) + "\n")
        assert main(["predict", "--model", str(model), "--data", str(faulty),
                     "--out", str(tmp_path / "p.csv")]) == 2
        assert f"{faulty}: {message}" in capsys.readouterr().err


# sha256 of the files below as written by the commit before the columnar
# ingest: synth, fuse, train and predict must keep every byte
PINNED_DIGESTS = {
    "d/solar_wind.csv": "0206af42964c9db14862962237d458fe0bd07026a593107874fd7be7a69bd7e0",
    "d/dst.csv": "a455a66fa40b8ff85415ed7494459735e7cefc70eeed4c6bd99009c0c8ba410d",
    "d/kp.csv": "c317aa1033ab86e4baa9622cc34e4eacc58c52da2bccfe889e86b6dd6be67697",
    "data.csv": "3a755cb939052203e9b7184ffdd98e057e3aea28f035df0f7d3fcec62b9ee705",
    "pred.csv": "8538397b7b7532fbd51cfead54891ff5b841495e6d8240156b5b4afe480c8dbe",
}


def test_synth_fuse_and_predict_bytes_are_pinned(tmp_cwd):
    assert main(["synth", "--seed", "7", "--days", "3", "--out", "d"]) == 0
    assert main(["fuse", "--solar-wind", "d/solar_wind.csv", "--dst", "d/dst.csv",
                 "--kp", "d/kp.csv", "--out", "data.csv"]) == 0
    assert main(["train", "--data", "data.csv", "--trees", "5", "--min-leaf", "2",
                 "--seed", "7", "--threads", "1", "--out", "model.json"]) == 0
    assert main(["predict", "--model", "model.json", "--data", "data.csv",
                 "--out", "pred.csv"]) == 0
    digests = {name: hashlib.sha256((tmp_cwd / name).read_bytes()).hexdigest()
               for name in PINNED_DIGESTS}
    assert digests == PINNED_DIGESTS


@pytest.mark.parametrize("missing", [("csvscan",), ("csvscan", "splitkernel")],
                         ids=["no scanner", "no kernel at all"])
def test_the_pinned_bytes_hold_without_the_csv_scanner(tmp_cwd, monkeypatch, missing):
    """The Python writer, reader and (with no kernel at all) grower write the same bytes."""
    load = splitkernel.load
    monkeypatch.setattr(splitkernel, "load",
                        lambda name="splitkernel": None if name in missing else load(name))
    test_synth_fuse_and_predict_bytes_are_pinned(tmp_cwd)


@pytest.mark.parametrize("missing", [(), ("csvscan",)], ids=["as built", "no scanner"])
def test_predict_with_a_linear_model_writes_each_prediction(sources, monkeypatch, missing):
    """Each line after the header is a row's time and ``repr`` of the
    linear model's prediction for it."""
    load = splitkernel.load
    monkeypatch.setattr(splitkernel, "load",
                        lambda name="splitkernel": None if name in missing else load(name))
    root = sources["dir"]
    data, model, out = root / "fused.csv", root / "linear.json", root / "pred.csv"
    assert main(_fuse_args(sources, data)) == 0
    assert main(["train", "--data", str(data), "--model-kind", "linear",
                 "--out", str(model)]) == 0
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(out)]) == 0
    dataset = FusedDataset.read_csv(data)
    predicted = baseline.predict_linear_batch(modelio.load_model(model), dataset.rows)
    lines = [f"{time},{float(value)!r}"
             for time, value in zip(ingest.format_minutes(dataset.row_minutes), predicted)]
    assert out.read_text().split("\n") == ["row_time,predicted", *lines, ""]


def test_threads_default_is_the_cpus_this_process_may_use(monkeypatch):
    def threads(value):
        return cli._threads(SimpleNamespace(threads=value))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert threads(None) == 3
    assert threads(7) == 7  # an explicit count is kept as given
    # platforms without an affinity API fall back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert threads(None) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert threads(None) == 1


def test_console_script_is_installed():
    result = subprocess.run(
        [sys.executable, "-m", "kpforecast", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "synth" in result.stdout and "compare" in result.stdout


# -- fuzzing main() over file flags and config files -------------------------

FILE_FLAGS = ("--solar-wind", "--dst", "--kp", "--data", "--model", "--config", "--out")
FAULTS = ("missing", "directory", "non-UTF-8", "empty", "truncated")


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A valid file for every file flag, shared by the fuzz examples."""
    root = tmp_path_factory.mktemp("valid")
    files = {"src": root / "src", "data": root / "data.csv", "forest": root / "forest.json",
             "linear": root / "linear.json", "config": root / "comments.conf"}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--seed", "4", "--days", "4", "--out", str(files["src"])]) == 0
        assert main(["fuse", *_sources(files), *SMALL_LAGS, "--out", str(files["data"])]) == 0
        assert main(["train", "--data", str(files["data"]), "--trees", "2", "--threads", "1",
                     "--out", str(files["forest"])]) == 0
        assert main(["train", "--data", str(files["data"]), "--model-kind", "linear",
                     "--out", str(files["linear"])]) == 0
    files["config"].write_text("# nothing to set\n")
    for command in cli._COMMANDS:  # each fuzz example starts from a command that works
        assert _run(_argv(command, files, root / "ok" / command)) == (0, "")
    return files


def _sources(files):
    src = files["src"]
    return ["--solar-wind", str(src / "solar_wind.csv"), "--dst", str(src / "dst.csv"),
            "--kp", str(src / "kp.csv")]


def _argv(command, files, out):
    """A valid command line for ``command`` that writes to ``out``."""
    experiment = [*_sources(files), *SMALL_LAGS, "--trees", "2", "--threads", "1",
                  "--cutoff", "2021-01-03T00:00Z"]
    data, model = str(files["data"]), str(files["forest"])
    argv = {
        "synth": ["synth", "--days", "2"],
        "fuse": ["fuse", *_sources(files), *SMALL_LAGS],
        "train": ["train", "--data", data, "--trees", "2", "--threads", "1"],
        "predict": ["predict", "--model", model, "--data", data],
        "importance": ["importance", "--model", model],
        "evaluate": ["evaluate", *experiment],
        "compare": ["compare", *experiment, "--ks", "4,2"],
        "pca": ["pca", "--data", data],
    }[command]
    return [*argv, "--config", str(files["config"]), "--out", str(out)]


def _run(argv):
    """Exit code and stderr of ``main(argv)``; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _faulty_file(fault, valid: Path | None, where: Path, data):
    """A path holding ``fault``; ``valid`` is the flag's valid file or directory."""
    content = valid.read_bytes() if valid is not None and valid.is_file() else b"a = 1\n"
    path = where / "faulty"
    if fault == "missing":
        return where / "no" / "such" / "file"
    if fault == "directory":
        path.mkdir()
    elif fault == "non-UTF-8":
        cut = data.draw(st.integers(0, len(content)), label="cut")
        path.write_bytes(content[:cut] + b"\xff" + content[cut:])
    elif fault == "empty":
        path.write_bytes(b"")
    else:
        path.write_bytes(content[:data.draw(st.integers(0, max(len(content) - 1, 0)), label="cut")])
    return path


@settings(max_examples=160)
@given(command=st.sampled_from(sorted(cli._COMMANDS)), fault=st.sampled_from(FAULTS),
       data=st.data())
def test_a_faulty_file_flag_never_ends_in_a_traceback(valid_files, tmp_path_factory,
                                                      command, fault, data):
    where = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    argv = _argv(command, valid_files, where / "out" / "result")
    flags = [i for i, arg in enumerate(argv) if arg in FILE_FLAGS]
    at = data.draw(st.sampled_from(flags), label="flag") + 1
    valid = None if argv[at - 1] == "--out" else Path(argv[at])
    argv[at] = str(_faulty_file(fault, valid, where, data))
    code, err = _run(argv)
    assert code in (0, 1, 2) and "Traceback" not in err
    if valid is not None and (fault in ("directory", "non-UTF-8")
                              or fault == "empty" and code == 2):
        assert code == 2 and err.startswith(f"error: {argv[at]}: ")
        assert err.count("\n") == 1
    if valid is not None and fault == "missing":
        assert code == 2 and err == f"error: cannot read {argv[at]}: no such file\n"


def _config_lines(command):
    keys = sorted(cli._COMMANDS[command][1])
    # small values only: a config may raise --trees, --days or --threads
    values = st.sampled_from(["abc", "", "-1", "0", "1", "3", "1.5", "true", "default", "all",
                              "2,1", "2021-13-01T00:00Z", "2021-01-02T00:00Z"])
    return st.lists(st.one_of(
        st.builds("{} = {}".format, st.sampled_from(keys), values),  # a bad or odd value
        st.builds("{} = {}".format, st.sampled_from(["no_such_key", "x-y", "=", " "]), values),
        st.sampled_from(["just some words", "key value", "# a comment", "", "   # indented"]),
    ), max_size=4)


@settings(max_examples=120)
@given(command=st.sampled_from(["synth", "fuse", "train", "evaluate", "compare"]),
       data=st.data())
def test_any_config_file_exits_0_1_or_2(valid_files, tmp_path_factory, command, data):
    where = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    lines = data.draw(_config_lines(command), label="config")
    config = where / "fuzz.conf"
    config.write_text("".join(line + "\n" for line in lines))
    argv = _argv(command, valid_files, where / "result")
    argv[argv.index("--config") + 1] = str(config)
    code, err = _run(argv)
    assert code in (0, 1, 2) and "Traceback" not in err


# -- fuzzing main() over the values of every other flag ----------------------

VALUE_FLAGS = [(command, flag) for command, (_, spec, _) in cli._COMMANDS.items()
               for flag in (f"--{cli._flag(key)}" for key in spec) if flag not in FILE_FLAGS]
# small values only: a flag may set --days, --trees, --threads or a lookback
FLAG_VALUES = ["", " ", "+1", "-1", "-0", "nan", "inf", "-inf", "1e400", "0x10", "1_0", "٣",
               "２", "1.5", "2,1", "1,", ",", "true", "default", "all", "2021-01-03T00:00:00Z",
               "2021-01-03T00:00Z"]


def _small(value: str) -> bool:
    """Whether no comma-separated part of ``value`` reads as a number above 12."""
    for part in value.split(","):
        try:
            number = float(part)
        except ValueError:
            continue
        if math.isfinite(number) and abs(number) > 12:
            return False
    return True


_ODD_VALUES = st.lists(st.sampled_from(
    ["", " ", "+", "-", "0", "1", "2", "_", ".", ",", "e", "nan", "inf", "x", "٣", "２",
     "T", ":00", "Z", "2021-01-03T00:00"]), max_size=4).map("".join).filter(_small)


def _with_each_flag_value(test):
    for value in FLAG_VALUES:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("command, flag", VALUE_FLAGS)
@settings(max_examples=2)
@_with_each_flag_value
@given(value=_ODD_VALUES)
def test_any_flag_value_exits_0_1_or_2(valid_files, tmp_path_factory, command, flag, value):
    out = tmp_path_factory.getbasetemp() / "flag-values" / command / "result"
    code, err = _run([*_argv(command, valid_files, out), f"{flag}={value}"])
    assert code in (0, 1, 2) and "Traceback" not in err


@pytest.mark.parametrize("command, flag, value", [
    ("synth", "--noise-scale", "inf"), ("synth", "--noise-scale", "nan"),
    ("synth", "--noise-scale", "1e400"), ("synth", "--storm-rate", "nan"),
    ("synth", "--storm-rate", "-inf"), ("compare", "--downsample-threshold", "nan"),
    ("evaluate", "--downsample-threshold", "nan"),
])
def test_non_finite_rates_and_thresholds_are_usage_errors(valid_files, tmp_path, command,
                                                          flag, value):
    # each of these once exited 0: synth wrote cells its own parsers refuse or
    # drew no storms, and a NaN threshold silently turned downsampling off
    code, err = _run([*_argv(command, valid_files, tmp_path / "out"), f"{flag}={value}"])
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("compare", "--downsample", "0", "downsample factor must be >= 1"),
    ("compare", "--downsample", "-1", "downsample factor must be >= 1"),
    ("compare", "--downsample-threshold", "-1", "downsample threshold must be >= 0, got -1.0"),
    ("compare", "--downsample-threshold", "-inf", "downsample threshold must be >= 0, got -inf"),
    ("evaluate", "--downsample-threshold", "-0.5",
     "downsample threshold must be >= 0, got -0.5"),
])
def test_a_downsample_that_thins_nothing_is_a_usage_error(valid_files, tmp_path, command, flag,
                                                           value, message):
    # each once exited 0: compare dropped its L=N row, and a negative
    # threshold marked no row as low, so the L=N row was the un-thinned fit
    argv = _argv(command, valid_files, tmp_path / "out")
    argv[argv.index("--solar-wind") + 1] = str(tmp_path / "missing.csv")  # never read
    code, err = _run([*argv, f"{flag}={value}"])
    assert (code, err) == (1, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_compare_keeps_its_downsampled_row_at_threshold_0(valid_files, tmp_path):
    code, _ = _run([*_argv("compare", valid_files, tmp_path / "table.csv"),
                    "--downsample-threshold=0"])
    assert code == 0
    labels = [line.split(",")[0] for line in (tmp_path / "table.csv").read_text().splitlines()]
    assert labels == ["label", "RF", "RF top-4", "RF top-2", "RF top-2 L=2", "Linear"]


def test_evaluate_refuses_k_features_on_a_linear_model(valid_files, tmp_path):
    # it once exited 0 and echoed "k_features": 5, but fitted on every feature
    argv = _argv("evaluate", valid_files, tmp_path / "out")
    argv[argv.index("--solar-wind") + 1] = str(tmp_path / "missing.csv")  # never read
    code, err = _run([*argv, "--model-kind", "linear", "--k-features", "5"])
    assert (code, err) == (1, "error: k_features needs a forest plan, not a linear one\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("compare", ["--mtry", "300", "--ks", "100,50"], "mtry 300 exceeds feature count 100"),
    ("compare", ["--ks", "5000"], "k_features 5000 exceeds feature count 767"),
    ("evaluate", ["--k-features", "5000"], "k_features 5000 exceeds feature count 767"),
    ("evaluate", ["--mtry", "768"], "mtry 768 exceeds feature count 767"),
    ("evaluate", ["--k-features", "10", "--mtry", "11"], "mtry 11 exceeds feature count 10"),
    ("compare", ["--ks", "10,50,10"], "bad value for --ks: 10 is given twice"),
], ids=["compare-mtry", "compare-k", "evaluate-k", "evaluate-mtry", "evaluate-k-mtry",
        "compare-repeated-k"])
def test_k_and_mtry_are_checked_before_any_file_is_read(tmp_path, command, flags, message):
    # compare --mtry 300 --ks 100,50 once fitted the full-width forest and
    # then exited 1; --ks 5000 and --k-features 5000 exited 2 after a fit;
    # --ks 10,10 printed the RF top-10 row twice and fitted that forest twice
    missing = str(tmp_path / "missing.csv")  # never read
    code, err = _run([command, "--solar-wind", missing, "--dst", missing, "--kp", missing,
                      "--cutoff", "2021-01-03T00:00Z", *flags, "--out", str(tmp_path / "out")])
    assert (code, err) == (1, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_evaluate_keeps_the_seed_of_a_linear_model(valid_files, tmp_path):
    # --seed seeds the downsample draw, so it is not a forest-only option
    argv = ["evaluate", *_sources(valid_files), *SMALL_LAGS, "--cutoff", "2021-01-03T00:00Z",
            "--model-kind", "linear", "--downsample", "2", "--seed", "3",
            "--out", str(tmp_path / "report.json")]
    assert _run(argv) == (0, "")
    assert json.loads((tmp_path / "report.json").read_text())["config"]["forest"]["seed"] == 3


_FOREST_FLAGS = [("trees", "0"), ("trees", "3"), ("mtry", "2"), ("min-leaf", "5"),
                 ("bootstrap", "false")]


@pytest.mark.parametrize("command, flag, value", [
    *(pytest.param("train", *flag_value, id="-".join(flag_value))
      for flag_value in [*_FOREST_FLAGS, ("seed", "0")]),
    # evaluate keeps --seed: it seeds the downsample draw
    *(pytest.param("evaluate", *flag_value, id="-".join(["evaluate", *flag_value]))
      for flag_value in _FOREST_FLAGS),
])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_train_refuses_forest_options_on_a_linear_model(tmp_path, command, flag, value, where):
    # each once exited 0 and was ignored (evaluate also echoed it in its
    # report), and --trees 0 failed a check for a fit that never ran; a
    # default value given explicitly counts too
    missing = str(tmp_path / "missing.csv")  # no file is read
    argv = {"train": ["train", "--data", missing],
            "evaluate": ["evaluate", "--solar-wind", missing, "--dst", missing, "--kp", missing,
                         "--cutoff", "2021-01-03T00:00Z"]}[command]
    argv += ["--model-kind", "linear", "--out", str(tmp_path / "out")]
    if where == "flag":
        argv += [f"--{flag}", value]
    else:
        config = tmp_path / "train.conf"
        config.write_text(f"{flag} = {value}\n")
        argv += ["--config", str(config)]
    code, err = _run(argv)
    assert (code, err) == (1, f"error: --{flag} needs a forest model, not a linear one\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rows, got", [(0, "none"), (1, "1")])
def test_pca_on_fewer_than_2_rows_is_a_data_error(valid_files, tmp_path, rows, got):
    # it once exited 1, a usage error, where train on the same file exits 2
    lines = valid_files["data"].read_text().splitlines(keepends=True)
    data = tmp_path / "short.csv"
    data.write_text("".join(lines[:1 + rows]))
    code, err = _run(["pca", "--data", str(data), "--out", str(tmp_path / "pca.csv")])
    assert (code, err) == (2, f"error: {data}: PCA needs at least 2 rows, got {got}\n")
    assert not (tmp_path / "pca.csv").exists()


def _run_without_warnings(argv):
    """``_run(argv)``, failing the test if a warning is raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _run(argv)
    assert [str(w.message) for w in caught] == []
    return result


def test_pca_on_rows_that_overflow_is_a_data_error(valid_files, tmp_path):
    # finite cells whose mean overflows once wrote -inf,nan coordinates and exited 0
    lines = valid_files["data"].read_text().splitlines(keepends=True)
    data = tmp_path / "huge.csv"
    data.write_text(lines[0] + "".join("1.5e308," + line.split(",", 1)[1] for line in lines[1:]))
    code, err = _run_without_warnings(["pca", "--data", str(data),
                                       "--out", str(tmp_path / "pca.csv")])
    assert (code, err) == (2, f"error: {data}: rows overflow: their mean or total variance "
                              "is not finite\n")
    assert not (tmp_path / "pca.csv").exists()


def test_a_linear_fit_on_rows_that_overflow_is_a_data_error(valid_files, tmp_path):
    # a column of 1.5e308 once gave a degenerate model (intercept 0.0,
    # near-zero coefficients) and exited 0
    lines = valid_files["data"].read_text().splitlines(keepends=True)
    data = tmp_path / "huge.csv"
    data.write_text(lines[0] + "".join("1.5e308," + line.split(",", 1)[1] for line in lines[1:]))
    code, err = _run_without_warnings(["train", "--data", str(data), "--model-kind", "linear",
                                       "--out", str(tmp_path / "linear.json")])
    assert (code, err) == (2, f"error: {data}: rows overflow: the singular values of the "
                              "design are not finite\n")
    assert not (tmp_path / "linear.json").exists()


def test_a_linear_model_that_overflows_is_named(valid_files, tmp_path):
    # a finite coefficient of 1e308 once wrote inf predictions and exited 0
    tampered = json.loads(valid_files["linear"].read_text())
    tampered["coefficients"][0] = 1e308
    model = tmp_path / "huge_linear.json"
    model.write_text(json.dumps(tampered))
    code, err = _run_without_warnings(["predict", "--model", str(model),
                                       "--data", str(valid_files["data"]),
                                       "--out", str(tmp_path / "p.csv")])
    assert (code, err) == (2, f"error: {model}: predictions must be finite; the model "
                              "overflows on these rows\n")
    assert not (tmp_path / "p.csv").exists()


_OFF_GRID = b"2021-01-01T00:00Z,1,1,1,1,1,1,1\n2021-01-01T00:17Z,1,1,1,1,1,1,1\n"


@pytest.mark.parametrize("flag, content, message", [
    ("--solar-wind", b"", "no records to build series 'fma'"),
    ("--dst", b"# a note\n", "no records to build series 'dst'"),
    ("--kp", b"", "no records to build series 'kp'"),
    ("--solar-wind", _OFF_GRID, "fma: record at 2021-01-01T00:17Z is off the 5-minute grid "
                                "anchored at 2021-01-01T00:00Z"),
], ids=["empty-solar-wind", "empty-dst", "empty-kp", "off-grid"])
def test_a_source_that_gives_no_series_is_named(valid_files, tmp_path, flag, content, message):
    # these faults are found after the parser, when the records are placed
    # on their grid, and once exited 2 without the file's name
    source = tmp_path / "source.csv"
    source.write_bytes(content)
    argv = _argv("fuse", valid_files, tmp_path / "o.csv")
    argv[argv.index(flag) + 1] = str(source)
    assert _run(argv) == (2, f"error: {source}: {message}\n")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command, message", [
    (["train", "--trees", "2", "--threads", "1"], "cannot fit a forest on zero rows"),
    (["train", "--model-kind", "linear"], "cannot fit a linear model on zero rows"),
], ids=["forest", "linear"])
def test_a_header_only_dataset_is_named(valid_files, tmp_path, command, message):
    # pca on the same file: test_pca_on_fewer_than_2_rows_is_a_data_error
    data = tmp_path / "header.csv"
    data.write_bytes(valid_files["data"].read_bytes().split(b"\n", 1)[0] + b"\n")
    code, err = _run([*command, "--data", str(data), "--out", str(tmp_path / "out")])
    assert (code, err) == (2, f"error: {data}: {message}\n")
    assert not (tmp_path / "out").exists()


def test_importance_names_a_linear_model(valid_files, tmp_path):
    linear = valid_files["linear"]
    code, err = _run(["importance", "--model", str(linear), "--out", str(tmp_path / "r.csv")])
    assert (code, err) == (2, f"error: {linear}: importance needs a forest model, "
                              "got a linear one\n")


def test_a_crlf_source_that_is_not_utf8_is_named_at_its_byte(valid_files, tmp_path):
    """The byte's position counts from the file's start, not from the text
    with its \\r\\n line ends made \\n, and comes before the fault on line 1."""
    lines = (valid_files["src"] / "kp.csv").read_bytes().replace(b"\n", b"\r\n")
    cut = len(lines) // 2
    content = b"not a record\r\n" + lines[:cut] + b"\xff" + lines[cut:]
    with pytest.raises(UnicodeDecodeError) as whole:
        content.decode("utf-8")
    kp = tmp_path / "kp.csv"
    kp.write_bytes(content)
    argv = _argv("fuse", valid_files, tmp_path / "o.csv")
    argv[argv.index("--kp") + 1] = str(kp)
    assert _run(argv) == (2, f"error: {kp}: {whole.value}\n")


def test_a_lookback_no_instant_can_fit_exits_2_naming_the_source(valid_files, tmp_path):
    out = tmp_path / "o.csv"
    code, err = _run(["fuse", *_sources(valid_files), "--solar-lookback-minutes", "187200",
                      "--solar-step-minutes", "60", "--out", str(out)])
    assert code == 2
    assert err.startswith("error: fma: no prediction instant fits a lookback of 187200 minutes")
    assert not out.exists()


def test_running_out_of_memory_exits_2_naming_the_command(tmp_path):
    """Under a 1 GiB address-space cap, the first array of a 10^8-day archive
    (215 GiB) cannot be allocated, so the error comes before any memory is used."""
    resource = pytest.importorskip("resource")
    cap = 1 << 30
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-m", "kpforecast", "synth", "--days", "100000000",
         "--out", str(tmp_path / "synth")],
        capture_output=True, text=True, timeout=120, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (result.returncode, result.stderr) == (2, "error: out of memory while running synth\n")
