"""Corpus-level stabilization: the fraction of streams whose window-to-window
rank overlap exceeds a threshold, evaluated over a (t, k) grid."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InsufficientDataError, ParameterError
from .measures import DEFAULT_P, DEFAULT_WINDOW, RboParams, _window_rbos
from .streams import TagStream, _check_window

NO_STABILITY_BELOW = 0.4
HIGH_STABILITY_ABOVE = 0.7


@dataclass(frozen=True)
class StabilitySurface:
    """Grid of stabilized fractions: values[i][j] = f(t_grid[i], k_grid[j]).

    ``n_eligible[i]`` is the number of streams long enough to be evaluated
    at t_grid[i]; every value in row i is a multiple of 1 / n_eligible[i].
    """

    t_grid: tuple[int, ...]
    k_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    n_streams: int
    n_eligible: tuple[int, ...]


def _check_checkpoint(t: int, window: int) -> None:
    _check_window(window)
    if t % window != 0 or t < 2 * window:
        raise ParameterError(
            f"t must be a multiple of the window and at least twice it; "
            f"got t={t}, window={window}"
        )


def _check_threshold(k: float) -> None:
    if not 0.0 <= k <= 1.0:
        raise ParameterError(f"threshold k must lie in [0, 1], got {k}")


def window_rbo(
    stream: TagStream,
    t: int,
    p: float = DEFAULT_P,
    window: int = DEFAULT_WINDOW,
    variant: str = "tie_corrected",
) -> float:
    """RBO between the stream's cumulative rankings at t - window and t."""
    _check_checkpoint(t, window)
    if t > len(stream):
        raise ParameterError(
            f"t={t} exceeds stream length {len(stream)}"
        )
    ((_, value),) = _window_rbos(stream, window, RboParams(p, variant), (t,))
    return value


def stabilization_fraction(
    corpus: Iterable[TagStream],
    t: int,
    k: float,
    p: float = DEFAULT_P,
    window: int = DEFAULT_WINDOW,
    variant: str = "tie_corrected",
) -> float:
    """Fraction of eligible streams with window RBO strictly above k at t.

    Streams shorter than t are excluded from both numerator and denominator;
    the comparison against k is strict.
    """
    return stability_surface(corpus, (t,), (k,), p, window, variant).values[0][0]


def _surface_arguments(
    t_grid: Sequence[int],
    k_grid: Sequence[float],
    p: float,
    window: int,
    variant: str,
) -> tuple[tuple[int, ...], tuple[float, ...], RboParams]:
    """Check a surface's grids and RBO parameters; they need no stream."""
    t_grid = tuple(t_grid)
    k_grid = tuple(k_grid)
    if not t_grid or not k_grid:
        raise ParameterError("t and k grids must be non-empty")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ParameterError("t grid must be strictly increasing")
    if any(b <= a for a, b in zip(k_grid, k_grid[1:])):
        raise ParameterError("k grid must be strictly increasing")
    for t in t_grid:
        _check_checkpoint(t, window)
    for k in k_grid:
        _check_threshold(k)
    return t_grid, k_grid, RboParams(p, variant)


def stability_surface(
    corpus: Iterable[TagStream],
    t_grid: Sequence[int],
    k_grid: Sequence[float],
    p: float = DEFAULT_P,
    window: int = DEFAULT_WINDOW,
    variant: str = "tie_corrected",
) -> StabilitySurface:
    """Evaluate the stabilized fraction over every (t, k) grid cell."""
    t_grid, k_grid, params = _surface_arguments(t_grid, k_grid, p, window, variant)
    corpus = tuple(corpus)
    per_t: dict[int, list[float]] = {t: [] for t in t_grid}
    for stream in corpus:
        usable = [t for t in t_grid if t <= len(stream)]
        if usable:
            for t, value in _window_rbos(stream, window, params, usable):
                per_t[t].append(value)
    rows = []
    eligible_counts = []
    for t in t_grid:
        values = sorted(per_t[t])
        if not values:
            raise InsufficientDataError(f"no stream is long enough for t={t}")
        n = len(values)
        eligible_counts.append(n)
        # n - bisect_right(values, k) counts the values strictly above k.
        rows.append(tuple((n - bisect_right(values, k)) / n for k in k_grid))
    return StabilitySurface(
        t_grid=t_grid,
        k_grid=k_grid,
        values=tuple(rows),
        n_streams=len(corpus),
        n_eligible=tuple(eligible_counts),
    )


def classify_stability(value: float) -> str:
    """Bucket an RBO value: below 0.4 none, 0.4 to 0.7 medium, above high."""
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ParameterError(f"stability value must lie in [0, 1], got {value}")
    if value < NO_STABILITY_BELOW:
        return "none"
    if value <= HIGH_STABILITY_ABOVE:
        return "medium"
    return "high"
