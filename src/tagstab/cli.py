"""Command-line interface: analyze tag logs, simulate streams, export grids.

All analysis subcommands write CSV to stdout with deterministic row order
(resource, then t, then k) and six significant digits on floating-point
columns.  Exit codes: 0 on success, 1 on usage errors, 2 on data errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import locale  # noqa: F401  argparse's gettext imports it on the first message otherwise
import math
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .errors import DataError, ParameterError
from .generators import GeneratorConfig, generate_corpus
from .ingest import ingest_tag_log, read_background_file, write_tag_log
from .measures import (
    DEFAULT_P,
    DEFAULT_TOP_K,
    DEFAULT_WINDOW,
    VARIANTS,
    RboParams,
    _check_kl_arguments,
    kl_random_baseline,
    kl_topk_trajectory,
    rbo_trajectory,
)
from .powerlaw import ccdf, compare_distributions, fit_power_law
from .stability import _surface_arguments, stability_surface
from .streams import _check_window, _proportions


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the CLI contract wants 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# A grid of this many points already gives 1e-4 steps over [0, 1].
_MAX_GRID_POINTS = 10_001


def _float_fmt(x: float) -> str:
    return f"{x:#.6g}"


def _check_grid_size(text: str, points: int) -> None:
    if points > _MAX_GRID_POINTS:
        raise ParameterError(
            f"grid {text!r} has more than {_MAX_GRID_POINTS} points"
        )


def _parse_int_grid(text: str) -> tuple[int, ...]:
    try:
        start, stop, step = (int(part) for part in text.split(":"))
    except ValueError:
        raise ParameterError(
            f"grid {text!r} is not of the form start:stop:step"
        ) from None
    if step < 1 or stop < start:
        raise ParameterError(f"grid {text!r} must ascend with a positive step")
    # Counted before the grid is built, so a tiny step fails at once.
    _check_grid_size(text, (stop - start) // step + 1)
    return tuple(range(start, stop + 1, step))


def _parse_float_grid(text: str) -> tuple[float, ...]:
    try:
        start, stop, step = (float(part) for part in text.split(":"))
    except ValueError:
        raise ParameterError(
            f"grid {text!r} is not of the form start:stop:step"
        ) from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ParameterError(f"grid {text!r} must have finite bounds and step")
    if step <= 0 or stop < start:
        raise ParameterError(f"grid {text!r} must ascend with a positive step")
    # Clamped first: a step far below the range would overflow round(),
    # and one point past the limit is enough to reject the grid.
    count = round(min((stop - start) / step, _MAX_GRID_POINTS))
    points = [start + i * step for i in range(count + 1)]
    grid = tuple(x for x in points if x <= stop + 1e-12)
    _check_grid_size(text, len(grid))
    return grid


def _writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _load_streams(args):
    streams, _ = ingest_tag_log(args.log, delimiter=args.delimiter)
    return streams


def _final_counts(stream) -> list[int]:
    # The power-law fits and the CCDF do not depend on sample order.
    return list(Counter(stream.tags).values())


def _cmd_validate(args) -> int:
    _, report = ingest_tag_log(args.log, delimiter=args.delimiter)
    print(json.dumps(report, indent=2))
    return 0


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row: quoted only if it
    holds the delimiter, the quote character or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow([text])
        return line.getvalue()[:-1]
    return text


# Entries the proportions formatter keeps before starting over: a long
# stream's proportions rarely repeat, and memory must not grow with it.
_MAX_FORMATTED = 4096


def _cmd_proportions(args) -> int:
    if args.top < 1:
        raise ParameterError(f"--top must be >= 1, got {args.top}")
    _check_window(args.window)
    streams = _load_streams(args)
    write = sys.stdout.write
    # Each distinct tag and proportion is formatted once.
    cells: dict[str, str] = {}
    formatted: dict[float, str] = {}
    write("resource_id,t,tag,proportion\n")
    for stream in streams:
        resource = _csv_cell(stream.resource_id)
        for t, proportions in _proportions(stream.tags, args.window, args.top):
            if len(formatted) > _MAX_FORMATTED:
                formatted.clear()
            head = f"{resource},{t},"
            rows = []
            for tag, p in proportions.items():
                cell = cells.get(tag)
                if cell is None:
                    cell = cells[tag] = _csv_cell(tag)
                text = formatted.get(p)
                if text is None:
                    text = formatted[p] = _float_fmt(p)
                rows.append(f"{head}{cell},{text}\n")
            # One write a checkpoint: at most its top rows are ever held.
            write("".join(rows))
    return 0


def _write_per_stream(header, streams, rows, all_skipped: str) -> None:
    """Write ``header`` and then ``rows(stream)`` for each stream in turn.

    A stream whose rows raise a DataError is skipped with a note on stderr.
    The header waits for the first stream that is not skipped: if every
    stream is skipped, DataError(all_skipped) is raised with stdout empty.
    """
    out = None
    for stream in streams:
        try:
            stream_rows = rows(stream)
        except DataError as exc:
            print(f"skipping {stream.resource_id}: {exc}", file=sys.stderr)
            continue
        if out is None:
            out = _writer()
            out.writerow(header)
        out.writerows(stream_rows)
    if out is None:
        raise DataError(all_skipped)


def _point_rows(stream, points) -> list[list]:
    return [[stream.resource_id, x, _float_fmt(value)] for x, value in points]


def _cmd_rbo(args) -> int:
    params = RboParams(args.p, args.variant)
    _check_window(args.window)
    _write_per_stream(
        ["resource_id", "t", "rbo"],
        _load_streams(args),
        lambda s: _point_rows(s, rbo_trajectory(s, args.window, params)),
        "no stream is long enough for the requested window",
    )
    return 0


def _cmd_kl(args) -> int:
    _check_kl_arguments(args.m, args.k)
    _write_per_stream(
        ["resource_id", "n", "kl"],
        _load_streams(args),
        lambda s: _point_rows(s, kl_topk_trajectory(s, args.m, args.k)),
        "no stream is long enough for the requested window",
    )
    return 0


def _cmd_kl_baseline(args) -> int:
    points = kl_random_baseline(
        args.m, args.k, args.vocab, args.length, args.trials, args.seed
    )
    out = _writer()
    out.writerow(["n", "mean_kl"])
    for n, value in points:
        out.writerow([n, _float_fmt(value)])
    return 0


_COMPARISON_COLUMNS = ["r_exp", "p_exp", "r_lognorm", "p_lognorm", "r_stretched", "p_stretched"]


def _fit_row(sample) -> list[float]:
    fit = fit_power_law(sample)
    comparison = compare_distributions(sample, fit)
    tests = (comparison.exponential, comparison.lognormal, comparison.stretched_exponential)
    return [fit.alpha, fit.xmin, fit.ks_distance, fit.n_tail,
            *(cell for test in tests for cell in (test.ratio, test.p_value))]


def _format_fit_row(label: str, row: list[float]) -> list[str]:
    # The fourth cell, n_tail, prints as an integer where it is one.
    return [label] + [str(int(value)) if i == 3 and float(value).is_integer()
                      else _float_fmt(float(value)) for i, value in enumerate(row)]


def _cmd_powerlaw(args) -> int:
    streams = _load_streams(args)
    header = ["resource_id", "alpha", "xmin", "ks_d", "n_tail"] + _COMPARISON_COLUMNS
    if args.pooled:
        pooled: list[int] = []
        for stream in streams:
            pooled.extend(_final_counts(stream))
        row = _format_fit_row("pooled", _fit_row(pooled))
        _writer().writerows([header, row])
        return 0
    fits = []

    def rows(stream):
        fits.append(_fit_row(_final_counts(stream)))
        return [_format_fit_row(stream.resource_id, fits[-1])]

    _write_per_stream(header, streams, rows, "no resource produced a fittable sample")
    # Summed row by row, not by sum(), which from Python 3.12 compensates
    # its rounding: the digits printed must not depend on the Python version.
    n, means, spreads = len(fits), [], []
    for column in zip(*fits):
        total = squares = 0.0
        for value in column:
            total += value
        mean = total / n
        for value in column:
            squares += (value - mean) * (value - mean)
        means.append(mean)
        spreads.append(math.sqrt(squares / (n - 1)) if n > 1 else math.nan)
    _writer().writerows([_format_fit_row("mean", means), _format_fit_row("std", spreads)])
    return 0


def _cmd_ccdf(args) -> int:
    streams = _load_streams(args)
    out = _writer()
    out.writerow(["resource_id", "value", "ccdf"])
    for stream in streams:
        for value, probability in ccdf(_final_counts(stream)):
            cell = str(int(value)) if value.is_integer() else _float_fmt(value)
            out.writerow([stream.resource_id, cell, _float_fmt(probability)])
    return 0


def _write_surfaces(args, logs, labelled: bool) -> int:
    """Write the stabilization surface of each log; ``labelled`` prefixes
    each row with a ``dataset`` column holding the log's file stem."""
    t_grid, k_grid, _ = _surface_arguments(
        _parse_int_grid(args.t_grid),
        _parse_float_grid(args.k_grid),
        args.p,
        args.window,
        args.variant,
    )
    # Every log is evaluated, one held at a time, before the first row is
    # written, so a data error in any of them leaves stdout empty.
    surfaces = []
    for log in logs:
        streams, _ = ingest_tag_log(log, delimiter=args.delimiter)
        surfaces.append(stability_surface(
            streams, t_grid, k_grid, p=args.p, window=args.window, variant=args.variant
        ))
    out = _writer()
    out.writerow(["dataset", "t", "k", "f"] if labelled else ["t", "k", "f"])
    for log, surface in zip(logs, surfaces):
        label = [Path(log).stem] if labelled else []
        for t, row in zip(surface.t_grid, surface.values):
            for k, f in zip(surface.k_grid, row):
                out.writerow(label + [t, _float_fmt(k), _float_fmt(f)])
    return 0


def _cmd_surface(args) -> int:
    return _write_surfaces(args, [args.log], False)


def _cmd_compare(args) -> int:
    paths: dict[str, str] = {}  # rows are labelled by stem: one path a stem
    for log in args.logs:
        other = paths.setdefault(Path(log).stem, log)
        if other != log:
            raise ParameterError(f"logs {other!r} and {log!r} share the stem "
                                 f"{Path(log).stem!r} that labels their rows")
    return _write_surfaces(args, args.logs, True)


def _cmd_simulate(args) -> int:
    config = GeneratorConfig(
        model=args.model,
        length=args.length,
        n_streams=args.streams,
        seed=args.seed,
        imitation_rate=args.imitation_rate,
        vocabulary_size=args.vocab,
        zipf_exponent=args.zipf_s,
    )
    # Checked before the table is read; replace() checks again with it.
    if args.background is not None:
        config = replace(config, background=read_background_file(args.background))
    write_tag_log(generate_corpus(config), args.out)
    return 0


def _nonempty(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _add_delimiter_argument(parser) -> None:
    parser.add_argument(
        "--delimiter", type=_nonempty, default="\t",
        help="input column delimiter (default: tab)",
    )


def _add_log_argument(parser) -> None:
    parser.add_argument("log", help="tag log file (TSV with a header)")
    _add_delimiter_argument(parser)


def _add_rbo_arguments(parser) -> None:
    parser.add_argument("--p", type=float, default=DEFAULT_P, help="persistence parameter")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW, help="assignments per step")
    parser.add_argument("--variant", choices=VARIANTS, default="tie_corrected")


def _add_grid_arguments(parser) -> None:
    parser.add_argument("--t-grid", required=True, help="assignment counts, start:stop:step")
    parser.add_argument("--k-grid", required=True, help="RBO thresholds, start:stop:step")


def _validate_parser(parser) -> None:
    _add_log_argument(parser)
    parser.set_defaults(func=_cmd_validate)


def _proportions_parser(parser) -> None:
    _add_log_argument(parser)
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    parser.add_argument("--top", type=int, default=10, help="tags per resource, by final count")
    parser.set_defaults(func=_cmd_proportions)


def _rbo_parser(parser) -> None:
    _add_log_argument(parser)
    _add_rbo_arguments(parser)
    parser.set_defaults(func=_cmd_rbo)


def _kl_parser(parser) -> None:
    _add_log_argument(parser)
    parser.add_argument("--m", type=int, default=DEFAULT_WINDOW, help="assignments per window")
    parser.add_argument("--k", type=int, default=DEFAULT_TOP_K, help="ranks compared")
    parser.set_defaults(func=_cmd_kl)


def _kl_baseline_parser(parser) -> None:
    parser.add_argument("--vocab", type=int, required=True)
    parser.add_argument("--m", type=int, default=DEFAULT_WINDOW)
    parser.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    parser.add_argument("--length", type=int, default=1000, help="assignments per trial stream")
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(func=_cmd_kl_baseline)


def _powerlaw_parser(parser) -> None:
    _add_log_argument(parser)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--per-resource", dest="pooled", action="store_false",
                      help="fit each resource, then append mean and std rows (default)")
    mode.add_argument("--pooled", dest="pooled", action="store_true",
                      help="fit the concatenated counts of all resources")
    parser.set_defaults(func=_cmd_powerlaw, pooled=False)


def _ccdf_parser(parser) -> None:
    _add_log_argument(parser)
    parser.set_defaults(func=_cmd_ccdf)


def _surface_parser(parser) -> None:
    _add_log_argument(parser)
    _add_rbo_arguments(parser)
    _add_grid_arguments(parser)
    parser.set_defaults(func=_cmd_surface)


def _compare_parser(parser) -> None:
    parser.add_argument("logs", nargs="+", help="tag log files")
    _add_delimiter_argument(parser)
    _add_rbo_arguments(parser)
    _add_grid_arguments(parser)
    parser.set_defaults(func=_cmd_compare)


def _simulate_parser(parser) -> None:
    parser.add_argument("--model", required=True,
                        choices=("random_uniform", "imitation", "background", "mixture"))
    parser.add_argument("--imitation-rate", type=float, default=0.0)
    parser.add_argument("--vocab", type=int, default=None)
    parser.add_argument("--zipf-s", type=float, default=None)
    parser.add_argument("--background", type=_nonempty, default=None, help="token<TAB>count table")
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--streams", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.set_defaults(func=_cmd_simulate)


# Command name -> (help line, function that adds the command's arguments and
# its ``func`` default to a parser).  Both parse paths of ``main`` are built
# from this table.
_COMMANDS = {
    "validate": ("ingest a log and report what loaded", _validate_parser),
    "proportions": ("relative tag proportions over time", _proportions_parser),
    "rbo": ("window-to-window rank overlap per resource", _rbo_parser),
    "kl": ("windowed top-rank KL divergence per resource", _kl_parser),
    "kl-baseline": ("mean KL of uniform-random streams", _kl_baseline_parser),
    "powerlaw": ("power-law tail fits of tag frequencies", _powerlaw_parser),
    "ccdf": ("complementary cumulative tag-frequency distribution", _ccdf_parser),
    "surface": ("stabilized fraction over a (t, k) grid", _surface_parser),
    "compare": ("stabilization surfaces of several logs", _compare_parser),
    "simulate": ("write a synthetic tag log", _simulate_parser),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="tagstab", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        add_arguments(commands.add_parser(name, help=help_line))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the full parser would, building only the named
    command's parser when that parser alone can finish the job.

    Every other argv (none, help, an unknown command, arguments the
    command leaves over) goes to the full parser, so its messages and
    exit codes are the full parser's own.
    """
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = _Parser(prog=f"tagstab {name}")
        _COMMANDS[name][1](parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = name
            return args
    return _build_parser().parse_args(argv)


def _discard_stdout() -> None:
    # Python flushes stdout again at exit; with the descriptor on devnull
    # that flush cannot fail a second time.
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no descriptor, or already closed
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"tagstab: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"tagstab: data error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed stdout; not an error
        _discard_stdout()
        return 0
    except OSError as exc:
        print(f"tagstab: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
