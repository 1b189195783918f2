"""Command-line interface: analyze tag logs, simulate streams, export grids.

All analysis subcommands write CSV to stdout with deterministic row order
(resource, then t, then k) and six significant digits on floating-point
columns.  Exit codes: 0 on success, 1 on usage errors, 2 on data errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import locale  # noqa: F401  argparse's gettext imports it on the first message otherwise
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

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
from .streams import _by_count, _check_window, _checkpoints, snapshot


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
    return sorted(snapshot(stream, len(stream)).counts.values(), reverse=True)


def _cmd_validate(args) -> int:
    _, report = ingest_tag_log(args.log, delimiter=args.delimiter)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_proportions(args) -> int:
    if args.top < 1:
        raise ParameterError(f"--top must be >= 1, got {args.top}")
    _check_window(args.window)
    streams = _load_streams(args)
    out = _writer()
    out.writerow(["resource_id", "t", "tag", "proportion"])
    for stream in streams:
        tags = _by_count(snapshot(stream, len(stream)).counts)[: args.top]
        for t, counts, _, _ in _checkpoints(stream, args.window):
            for tag in tags:
                out.writerow(
                    [stream.resource_id, t, tag, _float_fmt(counts.get(tag, 0) / t)]
                )
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
        lambda s: _point_rows(s, rbo_trajectory(s, args.window, params).points),
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


_COMPARISON_COLUMNS = [
    "r_exp",
    "p_exp",
    "r_lognorm",
    "p_lognorm",
    "r_stretched",
    "p_stretched",
]


def _fit_row(sample) -> list[float]:
    fit = fit_power_law(sample)
    comparison = compare_distributions(sample, fit)
    return [
        fit.alpha,
        fit.xmin,
        fit.ks_distance,
        fit.n_tail,
        comparison.exponential.ratio,
        comparison.exponential.p_value,
        comparison.lognormal.ratio,
        comparison.lognormal.p_value,
        comparison.stretched_exponential.ratio,
        comparison.stretched_exponential.p_value,
    ]


def _format_fit_row(label: str, row: list[float]) -> list[str]:
    cells = [label]
    for i, value in enumerate(row):
        if i == 3 and float(value).is_integer():  # n_tail
            cells.append(str(int(value)))
        else:
            cells.append(_float_fmt(float(value)))
    return cells


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
    out = _writer()
    matrix = np.array(fits, dtype=float)
    out.writerow(_format_fit_row("mean", list(matrix.mean(axis=0))))
    spread = matrix.std(axis=0, ddof=1) if len(fits) > 1 else np.full(matrix.shape[1], np.nan)
    out.writerow(_format_fit_row("std", list(spread)))
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


def _surface_grids(args) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The t and k grids of ``surface`` and ``compare``, checked with the
    RBO arguments before any log is read."""
    t_grid, k_grid, _ = _surface_arguments(
        _parse_int_grid(args.t_grid),
        _parse_float_grid(args.k_grid),
        args.p,
        args.window,
        args.variant,
    )
    return t_grid, k_grid


def _surface(streams, grids, args):
    return stability_surface(
        streams, *grids, p=args.p, window=args.window, variant=args.variant
    )


def _surface_rows(surface, label: str | None = None):
    for i, t in enumerate(surface.t_grid):
        for j, k in enumerate(surface.k_grid):
            row = [t, _float_fmt(k), _float_fmt(surface.values[i][j])]
            yield [label] + row if label is not None else row


def _cmd_surface(args) -> int:
    grids = _surface_grids(args)
    surface = _surface(_load_streams(args), grids, args)
    out = _writer()
    out.writerow(["t", "k", "f"])
    out.writerows(_surface_rows(surface))
    return 0


def _cmd_compare(args) -> int:
    grids = _surface_grids(args)

    def surface_of(log):
        streams, _ = ingest_tag_log(log, delimiter=args.delimiter)
        return _surface(streams, grids, args)

    # Every log is evaluated, one held at a time, before the first row is
    # written, so a data error in any of them leaves stdout empty.
    surfaces = [(Path(log).stem, surface_of(log)) for log in args.logs]
    out = _writer()
    out.writerow(["dataset", "t", "k", "f"])
    for label, surface in surfaces:
        out.writerows(_surface_rows(surface, label))
    return 0


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


def _build_parser() -> _Parser:
    parser = _Parser(prog="tagstab", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = commands.add_parser("validate", help="ingest a log and report what loaded")
    _add_log_argument(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = commands.add_parser("proportions", help="relative tag proportions over time")
    _add_log_argument(sub)
    sub.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    sub.add_argument("--top", type=int, default=10, help="tags per resource, by final count")
    sub.set_defaults(func=_cmd_proportions)

    sub = commands.add_parser("rbo", help="window-to-window rank overlap per resource")
    _add_log_argument(sub)
    _add_rbo_arguments(sub)
    sub.set_defaults(func=_cmd_rbo)

    sub = commands.add_parser("kl", help="windowed top-rank KL divergence per resource")
    _add_log_argument(sub)
    sub.add_argument("--m", type=int, default=DEFAULT_WINDOW, help="assignments per window")
    sub.add_argument("--k", type=int, default=DEFAULT_TOP_K, help="ranks compared")
    sub.set_defaults(func=_cmd_kl)

    sub = commands.add_parser("kl-baseline", help="mean KL of uniform-random streams")
    sub.add_argument("--vocab", type=int, required=True)
    sub.add_argument("--m", type=int, default=DEFAULT_WINDOW)
    sub.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    sub.add_argument("--length", type=int, default=1000, help="assignments per trial stream")
    sub.add_argument("--trials", type=int, default=50)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_kl_baseline)

    sub = commands.add_parser("powerlaw", help="power-law tail fits of tag frequencies")
    _add_log_argument(sub)
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--per-resource", dest="pooled", action="store_false",
                      help="fit each resource, then append mean and std rows (default)")
    mode.add_argument("--pooled", dest="pooled", action="store_true",
                      help="fit the concatenated counts of all resources")
    sub.set_defaults(func=_cmd_powerlaw, pooled=False)

    sub = commands.add_parser("ccdf", help="complementary cumulative tag-frequency distribution")
    _add_log_argument(sub)
    sub.set_defaults(func=_cmd_ccdf)

    sub = commands.add_parser("surface", help="stabilized fraction over a (t, k) grid")
    _add_log_argument(sub)
    _add_rbo_arguments(sub)
    _add_grid_arguments(sub)
    sub.set_defaults(func=_cmd_surface)

    sub = commands.add_parser("compare", help="stabilization surfaces of several logs")
    sub.add_argument("logs", nargs="+", help="tag log files")
    _add_delimiter_argument(sub)
    _add_rbo_arguments(sub)
    _add_grid_arguments(sub)
    sub.set_defaults(func=_cmd_compare)

    sub = commands.add_parser("simulate", help="write a synthetic tag log")
    sub.add_argument("--model", required=True,
                     choices=("random_uniform", "imitation", "background", "mixture"))
    sub.add_argument("--imitation-rate", type=float, default=0.0)
    sub.add_argument("--vocab", type=int, default=None)
    sub.add_argument("--zipf-s", type=float, default=None)
    sub.add_argument("--background", type=_nonempty, default=None, help="token<TAB>count table")
    sub.add_argument("--length", type=int, required=True)
    sub.add_argument("--streams", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
        sys.stderr.close()
        return 0
    except OSError as exc:
        print(f"tagstab: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
