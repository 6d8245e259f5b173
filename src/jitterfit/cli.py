"""Command-line front end.

Five subcommands cover the workflow end to end::

    jitterfit gen  --segments exp:mu=1:15000 --seed 7 trace.txt
    jitterfit fit  trace.txt --indicator-out z.csv
    jitterfit scan trace.txt --windows-out windows.csv
    jitterfit announce-encode record.json
    jitterfit announce-decode --hex 01000140...

Every command is deterministic: the same arguments over the same inputs
produce byte-identical outputs, so runs can be diffed.
"""

import argparse
import json
import sys

import numpy as np

from .announce import RegimeAnnouncement, WIRE_VERSION, decode, encode
from .distributions import ModelKind, ModelParams
from .em import EMConfig, em_fit
from .errors import JitterFitError
from .scan import WindowSpec, scan_trace
from .traceio import (
    JitterTrace,
    RegimeSpec,
    emit_indicator_csv,
    generate_synthetic,
    ingest_trace,
    write_trace,
)

_EPILOG = (
    "Defaults suit live monitoring of a packet stream: keep roughly the most "
    "recent 30000 samples (a few tens of seconds of traffic on a busy link) "
    "and re-run every several seconds."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jitterfit",
        description="Classify delay-jitter regimes with hard-assignment EM.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser(
        "fit",
        help="fit the candidate models to one trace",
        description="Run EM over a whole trace and print a JSON summary.",
        epilog=_EPILOG,
    )
    _add_trace_args(fit)
    fit.add_argument(
        "--indicator-out",
        metavar="PATH",
        help="also write the per-sample indicator CSV (index,z1,z2) here",
    )
    fit.add_argument(
        "--summary-out",
        metavar="PATH",
        help="write the JSON summary here instead of stdout",
    )
    fit.set_defaults(func=_cmd_fit)

    scan = sub.add_parser(
        "scan",
        help="classify sliding windows and report regime changes",
        description=(
            "Slide a window across the trace, classify each placement "
            "independently, and report where the dominant model flips."
        ),
        epilog=_EPILOG,
    )
    _add_trace_args(scan)
    scan.add_argument(
        "--window",
        type=int,
        default=3500,
        metavar="N",
        help="samples per window (default 3500: quick to react to a regime "
        "shift while keeping the shape estimate stable)",
    )
    scan.add_argument(
        "--stride",
        type=int,
        default=None,
        metavar="N",
        help="samples between window starts (default: the window size, "
        "giving non-overlapping windows)",
    )
    scan.add_argument(
        "--windows-out",
        metavar="PATH",
        help="write the per-window CSV (start,end,dominant,fraction_model0,"
        "converged) here",
    )
    scan.add_argument(
        "--summary-out",
        metavar="PATH",
        help="write the JSON summary here instead of stdout",
    )
    scan.set_defaults(func=_cmd_scan)

    gen = sub.add_parser(
        "gen",
        help="generate a seeded synthetic trace",
        description=(
            "Draw a reproducible synthetic trace from a comma-separated list "
            "of segment descriptors and write it in the line-per-sample "
            "format, with the ground-truth segment index per sample in a "
            "companion labels file."
        ),
    )
    gen.add_argument("out", help="output trace path")
    gen.add_argument(
        "--segments",
        required=True,
        metavar="SPEC",
        help="segment list, e.g. 'gamma:a=4:b=1:15000,exp:mu=1:15000' "
        "(kind:param=value:...:length)",
    )
    gen.add_argument(
        "--seed", type=int, default=0, metavar="N", help="generator seed (default 0)"
    )
    gen.add_argument(
        "--labels-out",
        metavar="PATH",
        help="ground-truth labels path (default: the trace path plus '.labels')",
    )
    gen.set_defaults(func=_cmd_gen)

    enc = sub.add_parser(
        "announce-encode",
        help="encode an announcement record from JSON to hex",
        description=(
            "Read a JSON object with keys model, params, window_start, "
            "window_len (version optional, defaults to "
            f"{WIRE_VERSION}) and print the record as hex."
        ),
    )
    enc.add_argument(
        "source",
        nargs="?",
        default="-",
        help="JSON file to read, or '-' for stdin (default)",
    )
    enc.add_argument(
        "--out", metavar="PATH", help="write the hex record here instead of stdout"
    )
    enc.set_defaults(func=_cmd_announce_encode)

    dec = sub.add_parser(
        "announce-decode",
        help="decode a hex announcement record to JSON",
        description="Parse a hex record, validate it, and print it as JSON.",
    )
    dec.add_argument(
        "source",
        nargs="?",
        default="-",
        help="file holding the hex record, or '-' for stdin (default)",
    )
    dec.add_argument("--hex", dest="hex_text", metavar="HEX", help="record given inline")
    dec.add_argument(
        "--out", metavar="PATH", help="write the JSON here instead of stdout"
    )
    dec.set_defaults(func=_cmd_announce_decode)

    return parser


def _add_trace_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="trace file, one decimal sample per line")
    sub.add_argument(
        "--offset",
        action="store_true",
        help="shift the trace to be strictly positive before fitting "
        "(for clock-difference traces that dip to or below zero)",
    )
    sub.add_argument(
        "--history-cap",
        type=int,
        default=30000,
        metavar="N",
        help="keep only the most recent N samples (default 30000; 0 keeps "
        "the whole trace)",
    )
    sub.add_argument(
        "--max-iters",
        type=int,
        default=50,
        metavar="K",
        help="EM iteration budget per fit (default 50; runs typically "
        "stabilize well before that)",
    )


def _load_trace(args) -> JitterTrace:
    if args.max_iters < 1:
        raise JitterFitError(f"--max-iters must be >= 1, got {args.max_iters}")
    cap = args.history_cap
    if cap < 0:
        raise JitterFitError(f"--history-cap must be >= 0, got {cap}")
    trace = ingest_trace(args.input, offset=args.offset)
    if cap and len(trace) > cap:
        trace = JitterTrace(
            trace.samples[-cap:], source=f"{trace.source} (last {cap} samples)"
        )
    return trace


def _model_entry(params: ModelParams, label_count: int) -> dict:
    entry: dict = {"kind": params.kind.name.lower()}
    if params.kind is ModelKind.EXPONENTIAL:
        entry["rate"] = params.rate
    else:
        entry["shape"] = params.shape
        entry["scale"] = params.scale
    entry["label_count"] = label_count
    return entry


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cmd_fit(args) -> int:
    trace = _load_trace(args)
    config = EMConfig(max_iters=args.max_iters)
    result = em_fit(trace, config)
    if args.indicator_out:
        emit_indicator_csv(result, args.indicator_out)
    counts = np.bincount(result.labels, minlength=len(config.kinds))
    summary = {
        "source": trace.source,
        "samples": len(trace),
        "converged": result.converged,
        "iterations_used": result.iterations_used,
        "classification_loglik": result.classification_loglik,
        "models": [
            _model_entry(params, int(counts[index]))
            for index, params in enumerate(result.final_params)
        ],
        "warnings": list(result.warnings),
    }
    _write_text(_json_text(summary), args.summary_out)
    return 0


def _cmd_scan(args) -> int:
    trace = _load_trace(args)
    spec = WindowSpec(size=args.window, stride=args.stride)
    config = EMConfig(max_iters=args.max_iters)
    timeline = scan_trace(trace, spec, config)
    if args.windows_out:
        rows = ["start,end,dominant,fraction_model0,converged"]
        rows.extend(
            f"{r.start},{r.end},{r.dominant.name.lower()},"
            f"{r.fraction_model0!r},{str(r.converged).lower()}"
            for r in timeline.reports
        )
        _write_text("\n".join(rows) + "\n", args.windows_out)
    summary = {
        "source": trace.source,
        "samples": len(trace),
        "window": spec.size,
        "stride": spec.stride,
        "windows": len(timeline.reports),
        "dominant_sequence": [r.dominant.name.lower() for r in timeline.reports],
        "change_points": list(timeline.change_points),
        "failures": [
            {"start": f.start, "end": f.end, "message": f.message}
            for f in timeline.failures
        ],
    }
    _write_text(_json_text(summary), args.summary_out)
    return 0


def _parse_segments(text: str) -> tuple[tuple[ModelParams, int], ...]:
    segments = []
    for part in text.split(","):
        descriptor = part.strip()
        fields = descriptor.split(":")
        if len(fields) < 3:
            raise JitterFitError(
                f"bad segment {descriptor!r}: expected kind:param=value:...:length"
            )
        kind = fields[0].strip().lower()
        try:
            length = int(fields[-1])
        except ValueError:
            raise JitterFitError(
                f"bad segment {descriptor!r}: length {fields[-1]!r} is not an integer"
            ) from None
        settings: dict[str, float] = {}
        for piece in fields[1:-1]:
            name, sep, value = piece.partition("=")
            if not sep:
                raise JitterFitError(
                    f"bad segment {descriptor!r}: expected param=value, got {piece!r}"
                )
            try:
                settings[name.strip().lower()] = float(value)
            except ValueError:
                raise JitterFitError(
                    f"bad segment {descriptor!r}: {value!r} is not a number"
                ) from None
        if kind in ("exp", "exponential"):
            if set(settings) != {"mu"}:
                raise JitterFitError(
                    f"bad segment {descriptor!r}: an exponential segment takes "
                    "exactly mu=<rate>"
                )
            params = ModelParams.exponential(settings["mu"])
        elif kind == "gamma":
            if set(settings) != {"a", "b"}:
                raise JitterFitError(
                    f"bad segment {descriptor!r}: a gamma segment takes exactly "
                    "a=<shape> and b=<scale>"
                )
            params = ModelParams.gamma(settings["a"], settings["b"])
        else:
            raise JitterFitError(
                f"bad segment {descriptor!r}: unknown kind {kind!r} "
                "(use exp or gamma)"
            )
        segments.append((params, length))
    return tuple(segments)


def _cmd_gen(args) -> int:
    spec = RegimeSpec(segments=_parse_segments(args.segments), seed=args.seed)
    labeled = generate_synthetic(spec)
    write_trace(labeled.trace, args.out)
    labels_path = args.labels_out or f"{args.out}.labels"
    with open(labels_path, "w", encoding="utf-8", newline="\n") as fh:
        for label in labeled.truth_labels:
            fh.write(f"{label}\n")
    sys.stdout.write(
        f"wrote {len(labeled.trace)} samples to {args.out} "
        f"(labels in {labels_path})\n"
    )
    return 0


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


_MODEL_NAMES = {kind.name.lower(): kind for kind in ModelKind}


def _cmd_announce_encode(args) -> int:
    text = _read_source(args.source)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JitterFitError(f"announcement JSON is invalid: {exc}") from None
    if not isinstance(payload, dict):
        raise JitterFitError("announcement JSON must be an object")
    missing = {"model", "params", "window_start", "window_len"} - set(payload)
    if missing:
        raise JitterFitError(
            f"announcement JSON is missing {', '.join(sorted(missing))}"
        )
    model = payload["model"]
    if isinstance(model, str):
        try:
            model = _MODEL_NAMES[model.strip().lower()]
        except KeyError:
            raise JitterFitError(f"unknown model name {payload['model']!r}") from None
    elif not isinstance(model, int):
        raise JitterFitError(f"model must be a name or an integer id, got {model!r}")
    params = payload["params"]
    if not isinstance(params, list) or not all(
        isinstance(p, (int, float)) and not isinstance(p, bool) for p in params
    ):
        raise JitterFitError(f"params must be a JSON array of numbers, got {params!r}")
    try:
        params = tuple(float(p) for p in params)
    except OverflowError:
        raise JitterFitError("params must be within the range of a double") from None
    record = RegimeAnnouncement(
        model=model,
        params=params,
        window_start=payload["window_start"],
        window_len=payload["window_len"],
        version=payload.get("version", WIRE_VERSION),
    )
    _write_text(encode(record).hex() + "\n", args.out)
    return 0


def _cmd_announce_decode(args) -> int:
    if args.hex_text is not None:
        text = args.hex_text
    else:
        text = _read_source(args.source)
    compact = "".join(text.split())
    try:
        blob = bytes.fromhex(compact)
    except ValueError:
        raise JitterFitError("announcement record is not valid hex") from None
    record = decode(blob)
    payload = {
        "version": record.version,
        "model": record.model.name.lower(),
        "params": list(record.params),
        "window_start": record.window_start,
        "window_len": record.window_len,
    }
    _write_text(_json_text(payload), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except JitterFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
