"""Command-line front end.

Subcommands: ``pauses`` (detect unfilled pauses in a WAV file), ``code``
(fragment and code an annotated transcript), ``segment`` (classify focusing
operations and print the segment tree), ``stats`` (regenerate the tables and
tests from coded records) and ``replicate`` (run the published-table checks
on the bundled corpus).

Exit codes: 0 success, 1 I/O failure, 2 input or schema error.  All outputs
are deterministic given the same inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from pathlib import Path
from typing import Callable

# Only what the parser and the first lexicon load need is imported here; each
# command imports the rest of the package when it runs, so ``code`` never
# loads ``stats`` and ``stats`` never loads ``classifier``.
from .focus import FocusEngineError, write_trace
from .jsonl import SchemaError, iter_jsonl, validate
from .lexicon import MissingAnnotation, bundled_lexicon, load_lexicon

EXIT_OK = 0
EXIT_IO = 1
EXIT_INPUT = 2


class OptionError(Exception):
    """A command-line option holds a value the command cannot use."""


def _input_errors() -> tuple[type[Exception], ...]:
    """The errors that exit 2; built when one is caught, so no command
    imports a module only to name its errors."""
    from .fragments import LengthMismatch
    from .pauses import UnsupportedFormat
    return (SchemaError, OptionError, UnsupportedFormat, LengthMismatch, MissingAnnotation,
            FocusEngineError)


def compute_report(*args, **kwargs):
    """``stats.compute_report``, imported when first called.  ``stats`` and
    ``replicate`` call it by this module's name, which the bench tracer wraps."""
    from .stats import compute_report
    return compute_report(*args, **kwargs)


def _read_functions(path: str | None, n: int) -> list[tuple[str, str]] | None:
    if path is None:
        return None
    from .fragments import FUNCTION_FIELDS

    labels = [("topical", "topical")] * n
    seen = set()
    for lineno, row in validate(iter_jsonl(path), FUNCTION_FIELDS, path):
        i = row["fragment_index"]
        if not 0 <= i < n:
            raise SchemaError(f"fragment_index {i} out of range", line=lineno, path=path)
        if i in seen:
            raise SchemaError(f"duplicate fragment_index {i}", line=lineno, path=path)
        seen.add(i)
        labels[i] = (row["prior"], row["subsequent"])
    return labels


def _out_dir(args: argparse.Namespace) -> Path:
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

#: The ``pauses`` option that sets each PauseConfig field.
_PAUSE_OPTIONS = {"threshold_db": "--threshold-db", "min_silence_s": "--min-silence",
                 "frame_ms": "--frame-ms"}


def cmd_pauses(args: argparse.Namespace) -> int:
    from . import pauses

    try:
        config = pauses.PauseConfig(threshold_db=args.threshold_db,
                                    min_silence_s=args.min_silence,
                                    frame_ms=args.frame_ms)
    except pauses.BadPauseConfig as exc:
        raise OptionError(f"{_PAUSE_OPTIONS[exc.field]}: {exc}") from None
    blocks, rate = pauses.read_wav(args.wav)
    try:
        pauses.frame_step(rate, config.frame_ms)
    except pauses.UnsupportedFormat as exc:  # a frame shorter than one sample
        raise OptionError(f"--frame-ms: {exc}") from None
    frames = pauses.frame_energy(blocks, rate, frame_ms=config.frame_ms)
    records = pauses.detect_pauses(frames, config=config)

    if args.out == "-":
        pauses.write_pauses(sys.stdout, records)
        summary_fp = sys.stderr
    else:
        out_path = _out_dir(args) / (Path(args.wav).stem + ".pauses.jsonl")
        pauses.write_pauses(out_path, records)
        print(f"wrote {out_path}")
        summary_fp = sys.stdout
    mean = (pauses.ordered_sum(r.reported_duration_s for r in records) / len(records)
            if records else 0.0)
    print(f"pauses: {len(records)}  mean reported duration: {mean:.2f} s  "
          f"(threshold_db={config.threshold_db:g} min_silence={config.min_silence_s:g} "
          f"frame_ms={config.frame_ms:g})", file=summary_fp)
    return EXIT_OK


def _record_line(path: str, index: int) -> int | None:
    """The line of the ``index``-th record of a JSONL file (0-based, blank lines skipped).

    None when the file cannot be read a second time (a pipe or FIFO has been
    drained, and reopening a FIFO would wait for a writer) or no longer holds
    that record.
    """
    if not Path(path).is_file():
        return None
    found = next(islice(iter_jsonl(path), index, None), None)
    return None if found is None else found[0]


def _segment_pipeline(args: argparse.Namespace):
    from . import classifier, fragments, pauses

    tokens = fragments.read_transcript(args.transcript)
    pause_records = pauses.read_pauses(args.pauses) if args.pauses else None
    lexicon = load_lexicon(args.lexicon) if args.lexicon else bundled_lexicon()
    try:
        frags = fragments.fragmentize(tokens, pause_records, lexicon)
    except fragments.MisalignedPause as exc:
        path = args.pauses if exc.blamed == "pauses" else args.transcript
        raise SchemaError(str(exc), line=_record_line(path, exc.index), path=path) from exc
    functions = _read_functions(args.functions, len(frags))
    config = classifier.load_weights(args.weights) if args.weights else classifier.DEFAULT_CONFIG
    result = classifier.segment_discourse(frags, functions=functions, config=config)
    return frags, functions, result


def cmd_segment(args: argparse.Namespace) -> int:
    from . import classifier

    frags, _, result = _segment_pipeline(args)
    stem = Path(args.transcript).stem
    directory = _out_dir(args)
    write_trace(directory / f"{stem}.trace.jsonl", result.trace)
    classifier.write_audit(directory / f"{stem}.audit.jsonl", result.classifications)
    rendering = result.tree.render()
    (directory / f"{stem}.tree.txt").write_text(rendering + "\n", encoding="utf-8")
    print(rendering)
    flagged = sum(1 for c in result.classifications if c.low_confidence)
    print(f"fragments: {len(frags)}  low-confidence classifications: {flagged}",
          file=sys.stderr)
    return EXIT_OK


def cmd_code(args: argparse.Namespace) -> int:
    from . import fragments

    frags, functions, result = _segment_pipeline(args)
    ops = [op for op, _ in result.trace]
    records = fragments.code(frags, ops, functions=functions)
    stem = Path(args.transcript).stem
    directory = _out_dir(args)
    coded_path = directory / f"{stem}.coded.jsonl"
    fragments.write_coded(coded_path, records)
    fragments.write_coded_tsv(directory / f"{stem}.coded.tsv", records)
    print(f"wrote {coded_path} and {coded_path.with_suffix('.tsv')}")
    marked = sum(1 for rec in records if rec.marked)
    print(f"fragments: {len(records)}  marked: {marked}  unmarked: {len(records) - marked}",
          file=sys.stderr)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    from . import fragments, pauses, report

    records = fragments.read_measured(args.coded)
    pause_records = pauses.read_pauses(args.pauses) if args.pauses else None
    config_note = (f"input={args.coded} pauses={args.pauses or 'none'} "
                   f"format={args.format}")
    stats_report = compute_report(records, pause_records, config_note=config_note)
    text = (report.render_json(stats_report) if args.format == "json"
            else report.render_text(stats_report))
    if args.out and args.out != "-":
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_replicate(args: argparse.Namespace) -> int:
    from . import replication

    try:
        records, pause_records = replication.load_bundled(args.corpus)
    except FileNotFoundError as exc:
        print(f"error: replication corpus not found: {exc}", file=sys.stderr)
        return EXIT_INPUT
    stats_report = compute_report(records, pause_records)
    checks = replication.run_checks(stats_report)
    excluded = stats_report.excluded_records
    print(f"replication checks on {'bundled corpus' if args.corpus is None else args.corpus} "
          f"({stats_report.n_records - excluded} records, {len(pause_records)} pauses"
          + (f"; excluded without measured pause: {excluded})" if excluded else ")"))
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        failed += 0 if check.passed else 1
        print(f"{status} {check.name}: {check.detail}")
    print(f"{len(checks) - failed} passed, {failed} failed")
    return EXIT_OK if failed == 0 else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _CommandParser:
    """One command's parser, built and filled only when that command is parsed.

    ``build_parser`` makes one per command (the ``parser_class`` of its
    subparsers), so a ``main`` call builds two ``ArgumentParser`` objects,
    the top-level one and its command's, not one per command.  argparse asks
    a subparser only to ``parse_known_args``: the top-level help lists each
    command from the ``help`` given to ``add_parser``.
    """

    def __init__(self, *, options: Callable[[argparse.ArgumentParser], None], **kwargs):
        self.options, self.kwargs = options, kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self.kwargs)
        self.options(parser)
        return parser.parse_known_args(args, namespace)


def _pauses_options(p: argparse.ArgumentParser) -> None:
    from . import pauses

    p.add_argument("wav")
    p.add_argument("--out", default=".", help="output directory, or - for stdout")
    defaults = pauses.DEFAULT_CONFIG
    p.add_argument("--threshold-db", type=float, default=defaults.threshold_db,
                   help="threshold above the noise floor in dB (default %(default)g)")
    p.add_argument("--min-silence", type=float, default=defaults.min_silence_s,
                   help="minimum silence to report, seconds (default %(default)g)")
    p.add_argument("--frame-ms", type=float, default=defaults.frame_ms,
                   help="analysis frame length in ms (default %(default)g)")
    p.set_defaults(func=cmd_pauses)


def _transcript_options(p: argparse.ArgumentParser, func: Callable) -> None:
    p.add_argument("transcript")
    p.add_argument("--pauses", default=None, help="detected pause JSONL to align")
    p.add_argument("--functions", default=None,
                   help="annotator prior/subsequent function labels (JSONL)")
    p.add_argument("--lexicon", default=None, help="alternative marker lexicon")
    p.add_argument("--weights", default=None, help="classifier weight config file")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=func)


def _stats_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("coded")
    p.add_argument("--pauses", default=None,
                   help="measured pause inventory for the duration histogram")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="output file, or - for stdout")
    p.set_defaults(func=cmd_stats)


def _replicate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", default=None,
                   help="directory holding replication_records.jsonl and "
                        "replication_pauses.jsonl (default: bundled)")
    p.set_defaults(func=cmd_replicate)


#: Each command: its name, its line in the top-level help, and what adds its options.
COMMANDS = (
    ("pauses", "detect unfilled pauses in a mono PCM WAV file", _pauses_options),
    ("segment", "classify focusing operations and print the segment tree",
     lambda p: _transcript_options(p, cmd_segment)),
    ("code", "fragment a transcript and write coded records",
     lambda p: _transcript_options(p, cmd_code)),
    ("stats", "regenerate tables and tests from coded records", _stats_options),
    ("replicate", "check the bundled corpus against the published tables",
     _replicate_options),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pausecue",
        description="Segment annotated spoken transcripts with a focus-space stack, "
                    "measure unfilled pauses, and regenerate the published statistics.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, help_text, options in COMMANDS:
        sub.add_parser(name, help=help_text, options=options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
