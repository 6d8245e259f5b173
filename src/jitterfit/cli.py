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
import functools
import json
import os
import stat
import sys

import numpy as np

from .announce import RegimeAnnouncement, WIRE_VERSION, decode, encode
from .distributions import ModelKind, ModelParams, _PARAM_NAMES, _unchecked
from .em import EMConfig, em_fit
from .errors import JitterFitError
from .scan import WindowSpec, scan_trace
from .traceio import (
    JitterTrace,
    RegimeSpec,
    _write_labels,
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

    _trace_command(
        sub,
        "fit",
        _cmd_fit,
        "--indicator-out",
        "also write the per-sample indicator CSV (index,z1,z2) here",
        help="fit the candidate models to one trace",
        description="Run EM over a whole trace and print a JSON summary.",
    )
    scan = _trace_command(
        sub,
        "scan",
        _cmd_scan,
        "--windows-out",
        "write the per-window CSV (start,end,dominant,fraction_model0,"
        "converged) here",
        help="classify sliding windows and report regime changes",
        description=(
            "Slide a window across the trace, classify each placement "
            "independently, and report where the dominant model flips."
        ),
    )
    scan.add_argument(
        "--window",
        type=int,
        default=WindowSpec.size,
        metavar="N",
        help="samples per window (default %(default)s: quick to react to a "
        "regime shift while keeping the shape estimate stable)",
    )
    scan.add_argument(
        "--stride",
        type=int,
        default=None,
        metavar="N",
        help="samples between window starts (default: the window size, "
        "giving non-overlapping windows)",
    )

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

    _announce_command(
        sub,
        "announce-encode",
        _cmd_announce_encode,
        "JSON file to read, or '-' for stdin (default)",
        "write the hex record here instead of stdout",
        help="encode an announcement record from JSON to hex",
        description=(
            "Read a JSON object with keys model, params, window_start, "
            "window_len (version optional, defaults to "
            f"{WIRE_VERSION}) and print the record as hex."
        ),
    )
    dec = _announce_command(
        sub,
        "announce-decode",
        _cmd_announce_decode,
        "file holding the hex record, or '-' for stdin (default)",
        "write the JSON here instead of stdout",
        help="decode a hex announcement record to JSON",
        description="Parse a hex record, validate it, and print it as JSON.",
    )
    dec.add_argument("--hex", dest="hex_text", metavar="HEX", help="record given inline")

    return parser


def _trace_command(sub, name: str, func, out_flag: str, out_help: str, **kwargs):
    """Add ``fit`` or ``scan``: the trace, its loading flags, ``--summary-out``
    and the command's own ``out_flag``, stored as ``data_out``."""
    cmd = sub.add_parser(name, epilog=_EPILOG, **kwargs)
    cmd.add_argument("input", help="trace file, one decimal sample per line")
    cmd.add_argument(
        "--offset",
        action="store_true",
        help="shift the trace to be strictly positive before fitting "
        "(for clock-difference traces that dip to or below zero)",
    )
    cmd.add_argument(
        "--history-cap",
        type=int,
        default=30000,
        metavar="N",
        help="keep only the most recent N samples (default 30000; 0 keeps "
        "the whole trace)",
    )
    cmd.add_argument(
        "--max-iters",
        type=int,
        default=EMConfig.max_iters,
        metavar="K",
        help="EM iteration budget per fit (default %(default)s; runs "
        "typically stabilize well before that)",
    )
    cmd.add_argument(out_flag, dest="data_out", metavar="PATH", help=out_help)
    cmd.add_argument(
        "--summary-out", metavar="PATH", help="write the JSON summary here instead of stdout"
    )
    cmd.set_defaults(func=func, out_flag=out_flag)
    return cmd


def _announce_command(sub, name: str, func, source_help: str, out_help: str, **kwargs):
    """Add an announce command that reads ``source`` and writes ``--out``."""
    cmd = sub.add_parser(name, **kwargs)
    cmd.add_argument("source", nargs="?", default="-", help=source_help)
    cmd.add_argument("--out", metavar="PATH", help=out_help)
    cmd.set_defaults(func=func)
    return cmd


def _same_file(a: str, b: str) -> bool:
    try:
        a_stat, b_stat = os.stat(a), os.stat(b)
    except OSError:
        # A path not made yet names another path's file only by its name.
        return os.path.realpath(a) == os.path.realpath(b)
    return stat.S_ISREG(a_stat.st_mode) and os.path.samestat(a_stat, b_stat)


def _refuse_shared_files(*named) -> None:
    """Raise if two of the ``(name, path)`` pairs, the paths one command
    reads and writes, name one regular file: the same path spelt two ways,
    or a link to it.  Devices such as ``/dev/null`` take any number of
    writers.  A path of None is not used."""
    given = [(name, path) for name, path in named if path is not None]
    for index, (name, path) in enumerate(given):
        for earlier, other in given[:index]:
            if _same_file(path, other):
                raise JitterFitError(f"{name} must not be the {earlier} path")


def _load_trace(args) -> JitterTrace:
    _refuse_shared_files(
        ("trace", args.input),
        (args.out_flag, args.data_out),
        ("--summary-out", args.summary_out),
    )
    cap = args.history_cap
    if cap < 0:
        raise JitterFitError(f"--history-cap must be >= 0, got {cap}")
    trace = ingest_trace(args.input, offset=args.offset)
    if cap and len(trace) > cap:
        source = f"{trace.source} (last {cap} samples)"
        trace = _unchecked(JitterTrace, samples=trace.samples[-cap:], source=source)
    return trace


def _model_entry(params: ModelParams, label_count: int) -> dict:
    fields = dict(zip(_PARAM_NAMES[params.kind], params.values))
    return {"kind": params.kind.name.lower(), **fields, "label_count": label_count}


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_json(payload: dict, path: str | None) -> None:
    _write_text(json.dumps(payload, indent=2) + "\n", path)


def _write_summary(args, trace: JitterTrace, **fields) -> int:
    """Write a trace command's JSON summary, led by its source and length."""
    _write_json({"source": trace.source, "samples": len(trace), **fields}, args.summary_out)
    return 0


def _cmd_fit(args) -> int:
    config = EMConfig(max_iters=args.max_iters)
    trace = _load_trace(args)
    # No output holds the per-pass history, so no pass is scored.
    result = em_fit(trace, config, record_history=False)
    if args.data_out:
        emit_indicator_csv(result, args.data_out)
    counts = np.bincount(result.labels, minlength=len(ModelKind))
    return _write_summary(
        args,
        trace,
        converged=result.converged,
        iterations_used=result.iterations_used,
        classification_loglik=result.classification_loglik,
        models=[
            _model_entry(params, int(counts[index]))
            for index, params in enumerate(result.final_params)
        ],
        warnings=list(result.warnings),
    )


def _cmd_scan(args) -> int:
    spec = WindowSpec(size=args.window, stride=args.stride)
    config = EMConfig(max_iters=args.max_iters)
    trace = _load_trace(args)
    timeline = scan_trace(trace, spec, config)
    if args.data_out:
        rows = ["start,end,dominant,fraction_model0,converged"]
        rows.extend(
            f"{r.start},{r.end},{r.dominant.name.lower()},"
            f"{r.fraction_model0!r},{str(r.converged).lower()}"
            for r in timeline.reports
        )
        _write_text("\n".join(rows) + "\n", args.data_out)
    return _write_summary(
        args,
        trace,
        window=spec.size,
        stride=spec.stride,
        windows=len(timeline.reports),
        dominant_sequence=[r.dominant.name.lower() for r in timeline.reports],
        change_points=list(timeline.change_points),
        failures=[
            {"start": f.start, "end": f.end, "message": f.message}
            for f in timeline.failures
        ],
    )


# Each segment kind's ModelParams builder, the names of its arguments in
# order, and the usage its errors quote.
_SEGMENT_KINDS = {
    "exp": (ModelParams.exponential, ("mu",), "an exponential segment takes exactly mu=<rate>"),
    "gamma": (
        ModelParams.gamma, ("a", "b"), "a gamma segment takes exactly a=<shape> and b=<scale>"
    ),
}
_SEGMENT_KINDS["exponential"] = _SEGMENT_KINDS["exp"]


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
        try:
            build, names, usage = _SEGMENT_KINDS[kind]
        except KeyError:
            raise JitterFitError(
                f"bad segment {descriptor!r}: unknown kind {kind!r} "
                "(use exp or gamma)"
            ) from None
        if set(settings) != set(names):
            raise JitterFitError(f"bad segment {descriptor!r}: {usage}")
        segments.append((build(*(settings[name] for name in names)), length))
    return tuple(segments)


def _cmd_gen(args) -> int:
    labels_path = args.labels_out or f"{args.out}.labels"
    _refuse_shared_files(("trace", args.out), ("--labels-out", labels_path))
    spec = RegimeSpec(segments=_parse_segments(args.segments), seed=args.seed)
    labeled = generate_synthetic(spec)
    # The labels file is created first, so a labels path that cannot be
    # opened leaves no trace file behind, and a trace that cannot be written
    # takes its labels file with it; a device such as /dev/null stays.
    open(labels_path, "wb").close()
    try:
        write_trace(labeled.trace, args.out)
    except OSError:
        if os.path.isfile(labels_path):
            os.remove(labels_path)
        raise
    _write_labels(labels_path, labeled.truth_labels)
    sys.stdout.write(
        f"wrote {len(labeled.trace)} samples to {args.out} "
        f"(labels in {labels_path})\n"
    )
    return 0


def _read_source(source: str) -> str:
    try:
        if source == "-":
            return sys.stdin.read()
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise JitterFitError(
            f"input is not UTF-8 text: cannot decode byte {bad:#04x} ({exc.reason})"
        ) from None


_MODEL_NAMES = {kind.name.lower(): kind for kind in ModelKind}


def _cmd_announce_encode(args) -> int:
    text = _read_source(args.source)
    try:
        payload = json.loads(text)
    except ValueError as exc:
        # Malformed JSON, or an integer literal past Python's digit limit.
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
    record = RegimeAnnouncement(
        model=model,
        params=payload["params"],
        window_start=payload["window_start"],
        window_len=payload["window_len"],
        version=payload.get("version", WIRE_VERSION),
    )
    _write_text(encode(record).hex() + "\n", args.out)
    return 0


def _cmd_announce_decode(args) -> int:
    text = _read_source(args.source) if args.hex_text is None else args.hex_text
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
    _write_json(payload, args.out)
    return 0


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing leaves a parser unchanged, so the one built on the first
    # main() call serves every later one in the process.
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (JitterFitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
