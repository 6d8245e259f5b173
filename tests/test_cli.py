"""Command-line behavior, exercised through main() for speed."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import jitterfit
from jitterfit import EMConfig, WindowSpec
from jitterfit.cli import build_parser, main

WORKED_EXAMPLE_HEX = "01000140000000000000000000000000000dac"


def _gen(tmp_path, name="trace.txt", segments="gamma:a=4:b=1:1000,exp:mu=1:1000", seed=5):
    out = tmp_path / name
    code = main(["gen", str(out), "--segments", segments, "--seed", str(seed)])
    assert code == 0
    return out


def test_gen_writes_trace_and_labels(tmp_path, capsys):
    out = _gen(tmp_path)
    captured = capsys.readouterr()
    assert "wrote 2000 samples" in captured.out
    labels = (tmp_path / "trace.txt.labels").read_text().splitlines()
    assert len(labels) == 2000
    assert labels[0] == "0" and labels[-1] == "1"
    lines = out.read_text().splitlines()
    assert len(lines) == 2000
    assert all(float(line) > 0 for line in lines)


@pytest.mark.parametrize("labels_out", ["t.txt", "./t.txt"])
def test_gen_refuses_labels_over_the_trace(tmp_path, capsys, monkeypatch, labels_out):
    monkeypatch.chdir(tmp_path)
    argv = ["gen", "t.txt", "--segments", "exp:mu=1:10", "--labels-out", labels_out]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --labels-out must not be the trace path\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_gen_refuses_labels_over_a_hard_link_to_the_trace(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_bytes(b"")
    os.link(tmp_path / "t.txt", tmp_path / "h.txt")
    argv = ["gen", "t.txt", "--segments", "exp:mu=1:10", "--labels-out", "h.txt"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --labels-out must not be the trace path\n"
    assert captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["h.txt", "t.txt"]
    assert (tmp_path / "t.txt").read_bytes() == b""


def test_gen_reports_a_segment_whose_draws_all_overflow(tmp_path, capsys):
    out = tmp_path / "t.txt"
    assert main(["gen", str(out), "--segments", "exp:mu=1e-320:10"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: variate generation for exponential kept producing ")


def test_gen_is_deterministic(tmp_path, capsys):
    a = _gen(tmp_path, "a.txt")
    b = _gen(tmp_path, "b.txt")
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.txt.labels").read_bytes() == (tmp_path / "b.txt.labels").read_bytes()


def test_fit_summary_and_indicator(tmp_path, capsys):
    trace = _gen(tmp_path)
    capsys.readouterr()
    indicator = tmp_path / "z.csv"
    code = main(["fit", str(trace), "--indicator-out", str(indicator)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["samples"] == 2000
    assert isinstance(summary["converged"], bool)
    assert summary["iterations_used"] >= 1
    kinds = [entry["kind"] for entry in summary["models"]]
    assert kinds == ["exponential", "gamma"]
    assert "rate" in summary["models"][0]
    assert {"shape", "scale"} <= set(summary["models"][1])
    assert sum(entry["label_count"] for entry in summary["models"]) == 2000
    rows = indicator.read_text().splitlines()
    assert rows[0] == "index,z1,z2"
    assert len(rows) == 2001
    assert rows[1].startswith("1,")


def test_fit_scores_no_pass(tmp_path, capsys, monkeypatch):
    # fit prints no per-pass history, so it must not pay for one: with the
    # per-pass scorer broken, its outputs are still the unpatched run's.
    trace = _gen(tmp_path)
    capsys.readouterr()

    def fit(tag):
        indicator, summary = tmp_path / f"z{tag}.csv", tmp_path / f"s{tag}.json"
        argv = ["fit", str(trace), "--indicator-out", str(indicator)]
        assert main([*argv, "--summary-out", str(summary)]) == 0
        return indicator.read_bytes(), summary.read_bytes()

    want = fit("want")
    assert json.loads(want[1])["iterations_used"] > 1

    def refuse(*args):
        raise AssertionError("fit scored an EM pass")

    monkeypatch.setattr(jitterfit.em, "_run_loglik", refuse)
    assert fit("got") == want
    assert capsys.readouterr().err == ""


def test_fit_single_iteration_budget(tmp_path, capsys):
    trace = _gen(tmp_path)
    capsys.readouterr()
    assert main(["fit", str(trace), "--max-iters", "1"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations_used"] == 1
    assert summary["converged"] is False


def test_nonpositive_iteration_budget_is_reported(tmp_path, capsys):
    trace = _gen(tmp_path)
    capsys.readouterr()
    assert main(["fit", str(trace), "--max-iters", "0"]) == 1
    assert capsys.readouterr().err == "error: max_iters must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["fit", "--max-iters", "0"], "max_iters must be at least 1, got 0"),
        (["scan", "--max-iters", "0"], "max_iters must be at least 1, got 0"),
        (["scan", "--window", "10"], "window size must be at least 100 samples, got 10"),
        (["scan", "--stride", "0"], "stride must be at least 1, got 0"),
    ],
    ids=["fit-max-iters", "scan-max-iters", "scan-window", "scan-stride"],
)
def test_bad_flag_is_reported_before_the_trace_is_read(tmp_path, capsys, argv, message):
    missing = tmp_path / "missing.txt"
    assert main([argv[0], str(missing), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_scan_window_larger_than_trace(tmp_path, capsys):
    trace = _gen(tmp_path)  # 2000 samples
    capsys.readouterr()
    assert main(["scan", str(trace), "--window", "3500"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "shorter than one window" in err


def test_fit_is_deterministic(tmp_path, capsys):
    trace = _gen(tmp_path)
    capsys.readouterr()
    assert main(["fit", str(trace)]) == 0
    first = capsys.readouterr().out
    assert main(["fit", str(trace)]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_scan_summary_and_windows_csv(tmp_path, capsys):
    trace = _gen(tmp_path)
    capsys.readouterr()
    windows = tmp_path / "windows.csv"
    code = main(
        ["scan", str(trace), "--window", "500", "--windows-out", str(windows)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["window"] == 500
    assert summary["stride"] == 500
    assert summary["windows"] == 4
    assert len(summary["dominant_sequence"]) == 4
    assert all(d in ("exponential", "gamma") for d in summary["dominant_sequence"])
    assert isinstance(summary["change_points"], list)
    assert summary["failures"] == []
    rows = windows.read_text().splitlines()
    assert rows[0] == "start,end,dominant,fraction_model0,converged"
    assert len(rows) == 5


def test_scan_stride_defaults_to_window(tmp_path, capsys):
    trace = _gen(tmp_path)
    capsys.readouterr()
    assert main(["scan", str(trace), "--window", "700"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["stride"] == 700


def test_history_cap_keeps_most_recent(tmp_path, capsys):
    trace = _gen(tmp_path)
    capsys.readouterr()
    assert main(["fit", str(trace), "--history-cap", "500"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["samples"] == 500
    assert "last 500" in summary["source"]


def test_history_cap_zero_keeps_everything(tmp_path, capsys):
    trace = _gen(tmp_path)
    capsys.readouterr()
    assert main(["fit", str(trace), "--history-cap", "0"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["samples"] == 2000


def test_offset_flag_allows_nonpositive_traces(tmp_path, capsys):
    path = tmp_path / "clockdiff.txt"
    path.write_text("".join(f"{v}\n" for v in [-0.002, 0.008, 0.004, 0.001] * 200))
    code = main(["fit", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 1" in err
    assert main(["fit", str(path), "--offset"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["samples"] == 800


def test_empty_trace_is_reported(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# only a comment\n")
    assert main(["fit", str(path)]) == 1
    assert "empty trace" in capsys.readouterr().err


def test_bad_history_cap_is_reported_before_reading(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "nope.txt"), "--history-cap", "-1"]) == 1
    assert capsys.readouterr().err == "error: --history-cap must be >= 0, got -1\n"


def test_missing_file_is_reported(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\nnot-a-number\n")
    assert main(["fit", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_non_utf8_trace_is_reported(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1.5\n\xff\xfe2\n")
    assert main(["fit", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace is not UTF-8 text")
    assert err.count("\n") == 1


def test_overflowing_sample_sum_is_reported_without_warnings(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1e308\n1.5e308\n1.2e308\n1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit", str(path)]) == 1
    assert caught == []
    assert capsys.readouterr().err == (
        "error: initial fit failed for model 0 (exponential): samples sum past "
        "the largest double; rescale the trace to fit it\n"
    )


def test_subnormal_trace_is_reported(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("5e-324\n1e-323\n5e-324\n")
    assert main(["fit", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: initial fit failed for model 0 (exponential): exponential rate "
        "1/mean = inf is not a finite double; rescale the trace to fit it\n"
    )


def test_trace_of_two_nearly_equal_samples_is_reported(tmp_path, capsys):
    # A log-moment gap of about 1e-32 starts the gamma shape solve near 1e31.
    path = tmp_path / "narrow.txt"
    path.write_text("1\n1.0000000000000004\n")
    assert main(["fit", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: initial fit failed for model 1 (gamma): gamma shape estimate "
        "exceeded 1e+06; samples are too concentrated for a meaningful fit\n"
    )


# Twelve segments, so the labels file holds two-digit labels, and enough
# samples for the trace file to span several read chunks.
GOLDEN_SEGMENTS = ",".join(
    f"gamma:a={2 + k}:b=0.5:{300 + 37 * k}" if k % 2 == 0 else f"exp:mu={1 + k / 4}:{250 + 41 * k}"
    for k in range(12)
)


def test_gen_and_fit_outputs_match_golden_digests(tmp_path, capsys):
    # Recorded with the per-line writers the chunked ones replaced.
    trace = _gen(tmp_path, segments=GOLDEN_SEGMENTS, seed=20031)
    indicator = tmp_path / "z.csv"
    code = main(
        ["fit", str(trace), "--history-cap", "0", "--indicator-out", str(indicator)]
    )
    assert code == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (trace, tmp_path / "trace.txt.labels", indicator)
    }
    assert digests == {
        "trace.txt": "bd85fb57ff19f11ffdc48133a74670578f5e3a5c50024e2a3ad95e72f06ec015",
        "trace.txt.labels": "462c7104c14688b3d714e90654fb88a017ed11b86e8a002c2833312866354292",
        "z.csv": "2897d88d2c0b03eacae2f42e9d4f3dca6f984451ae3a0ea2fb4ea92e34c87104",
    }


@pytest.mark.parametrize(
    "segments",
    [
        "bogus",
        "exp:mu=1",
        "exp:1000",
        "exp:mu=oops:1000",
        "exp:rate=1:1000",
        "gamma:a=4:1000",
        "pareto:a=1:1000",
    ],
)
def test_bad_segment_descriptors(tmp_path, capsys, segments):
    code = main(["gen", str(tmp_path / "t.txt"), "--segments", segments])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "segments, message",
    [
        ("exp:mu=1:ten", "bad segment 'exp:mu=1:ten': length 'ten' is not an integer"),
        ("exp:mu1:1000", "bad segment 'exp:mu1:1000': expected param=value, got 'mu1'"),
    ],
)
def test_bad_segment_descriptors_name_the_fault(tmp_path, capsys, segments, message):
    assert main(["gen", str(tmp_path / "t.txt"), "--segments", segments]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_announce_encode_decode_round_trip(tmp_path, capsys):
    record = {
        "model": "exponential",
        "params": [2.0],
        "window_start": 0,
        "window_len": 3500,
    }
    src = tmp_path / "record.json"
    src.write_text(json.dumps(record))
    hex_out = tmp_path / "record.hex"
    assert main(["announce-encode", str(src), "--out", str(hex_out)]) == 0
    assert hex_out.read_text().strip() == WORKED_EXAMPLE_HEX
    assert main(["announce-decode", "--hex", hex_out.read_text()]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"version": 1, **record}


def test_announce_encode_from_stdin(tmp_path, capsys, monkeypatch):
    record = {
        "model": "gamma",
        "params": [4.0, 1.0],
        "window_start": 7000,
        "window_len": 3500,
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(record)))
    assert main(["announce-encode"]) == 0
    hex_text = capsys.readouterr().out.strip()
    assert len(hex_text) == 27 * 2
    assert main(["announce-decode", "--hex", hex_text]) == 0
    assert json.loads(capsys.readouterr().out)["model"] == "gamma"


def test_announce_encode_missing_keys(tmp_path, capsys):
    src = tmp_path / "record.json"
    src.write_text(json.dumps({"model": "exponential"}))
    assert main(["announce-encode", str(src)]) == 1
    err = capsys.readouterr().err
    assert "params" in err and "window_len" in err


def test_announce_encode_rejects_bad_json(tmp_path, capsys):
    src = tmp_path / "record.json"
    src.write_text("{nope")
    assert main(["announce-encode", str(src)]) == 1
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"params": "12"}, "params must be a list or tuple of real numbers"),
        ({"params": 2.0}, "params must be a list or tuple of real numbers"),
        ({"params": [True]}, "params must be a list or tuple of real numbers"),
        ({"params": [None]}, "params must be a list or tuple of real numbers"),
        ({"params": [10**400]}, "range of a double"),
        ({"window_start": False}, "window start must be an integer"),
        ({"window_len": True}, "window length must be an integer"),
        ({"model": True}, "unknown model id"),
        ({"model": [0]}, "unknown model id [0]"),
        ({"version": True}, "unsupported format version"),
        ({"model": "pareto"}, "unknown model name 'pareto'"),
    ],
)
def test_announce_encode_rejects_malformed_fields(tmp_path, capsys, overrides, message):
    record = {"model": "exponential", "params": [2.0], "window_start": 0, "window_len": 5}
    src = tmp_path / "record.json"
    src.write_text(json.dumps({**record, **overrides}))
    assert main(["announce-encode", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


LONG_INTEGER = "9" * 5000


@pytest.mark.parametrize(
    "params, window_start",
    [(f"[{LONG_INTEGER}]", "0"), ("[2.0]", LONG_INTEGER)],
    ids=["params", "window_start"],
)
def test_announce_encode_rejects_an_integer_past_the_digit_limit(
    tmp_path, capsys, params, window_start
):
    # Python's JSON parser refuses integer literals of over 4300 digits with
    # a ValueError of its own, not a JSONDecodeError.
    src = tmp_path / "record.json"
    src.write_text(
        f'{{"model": "exponential", "params": {params}, '
        f'"window_start": {window_start}, "window_len": 5}}'
    )
    assert main(["announce-encode", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: announcement JSON is invalid: Exceeds the limit")
    assert captured.err.count("\n") == 1


def test_announce_encode_rejects_json_that_is_not_an_object(tmp_path, capsys):
    src = tmp_path / "record.json"
    src.write_text("[1, 2]")
    assert main(["announce-encode", str(src)]) == 1
    assert capsys.readouterr().err == "error: announcement JSON must be an object\n"


def test_announce_encode_rejects_a_fractional_version(tmp_path, capsys):
    record = {"model": "exponential", "params": [2.0], "window_start": 0, "window_len": 5}
    src = tmp_path / "record.json"
    src.write_text(json.dumps({**record, "version": 1.0}))
    assert main(["announce-encode", str(src)]) == 1
    assert capsys.readouterr().err == (
        "error: unsupported format version 1.0; this build speaks 1\n"
    )


NON_UTF8_ERROR = (
    "error: input is not UTF-8 text: cannot decode byte 0xff (invalid start byte)\n"
)


@pytest.mark.parametrize("command", ["announce-encode", "announce-decode"])
def test_announce_non_utf8_file_is_reported(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff{}")
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == NON_UTF8_ERROR


@pytest.mark.parametrize("command", ["announce-encode", "announce-decode"])
def test_announce_non_utf8_stdin_is_reported(capsys, monkeypatch, command):
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff{}"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main([command]) == 1
    assert capsys.readouterr().err == NON_UTF8_ERROR


def test_announce_decode_rejects_bad_hex(capsys):
    assert main(["announce-decode", "--hex", "zz"]) == 1
    assert "hex" in capsys.readouterr().err


def test_announce_decode_rejects_short_record(capsys):
    assert main(["announce-decode", "--hex", "0100"]) == 1
    assert "error:" in capsys.readouterr().err


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["scan", "--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    assert "3500" in text
    assert "30000" in text
    assert "default" in text
    with pytest.raises(SystemExit):
        main(["fit", "--help"])
    text = capsys.readouterr().out
    assert "50" in text and "30000" in text


def test_fit_and_scan_take_their_defaults_from_the_specs(capsys):
    parser = build_parser()
    fit = parser.parse_args(["fit", "trace.txt"])
    scan = parser.parse_args(["scan", "trace.txt"])
    assert EMConfig(fit.max_iters) == EMConfig(scan.max_iters) == EMConfig()
    assert WindowSpec(scan.window, scan.stride) == WindowSpec()
    for command, phrase in (("scan", "default 3500"), ("fit", "default 50")):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert phrase in " ".join(capsys.readouterr().out.split()), command


def test_console_script_entry_point():
    # Checks what the installed `jitterfit` wrapper would run, without an
    # install: the pyproject entry point, called the way the wrapper calls it.
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts["jitterfit"] == "jitterfit.cli:main_entry"
    wrapper = (
        "import sys\n"
        "from jitterfit.cli import main_entry\n"
        "sys.argv[0] = 'jitterfit'\n"
        "sys.exit(main_entry())\n"
    )
    package_parent = str(Path(jitterfit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": package_parent}
    result = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: jitterfit")
    assert "fit" in result.stdout and "scan" in result.stdout


@pytest.mark.skipif(
    shutil.which("jitterfit") is None,
    reason="no installed jitterfit executable on PATH",
)
def test_installed_console_script_runs():
    result = subprocess.run(
        ["jitterfit", "--help"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0
    assert "fit" in result.stdout and "scan" in result.stdout
