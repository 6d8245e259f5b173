"""Command-line behavior, exercised through main() for speed."""

import io
import json
import subprocess
import sys

import pytest

from jitterfit.cli import main

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
    assert "--max-iters must be >= 1" in capsys.readouterr().err


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
        ({"params": "12"}, "params must be a JSON array of numbers"),
        ({"params": 2.0}, "params must be a JSON array of numbers"),
        ({"params": [True]}, "params must be a JSON array of numbers"),
        ({"params": [None]}, "params must be a JSON array of numbers"),
        ({"params": [10**400]}, "range of a double"),
        ({"window_start": False}, "window start must be an integer"),
        ({"window_len": True}, "window length must be an integer"),
        ({"model": True}, "unknown model id"),
        ({"model": [0]}, "model must be a name or an integer id"),
        ({"version": True}, "unsupported format version"),
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


def test_console_script_entry_point():
    result = subprocess.run(
        ["jitterfit", "--help"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0
    assert "fit" in result.stdout and "scan" in result.stdout
