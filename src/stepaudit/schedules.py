"""Stepsize sequences with cached prefix sums.

A :class:`StepSchedule` is a vectorised values function ``first(n) ->
[eta_0, ..., eta_{n-1}]`` plus an optional ``length`` for finite tables.
The first materialisation of each index validates it and appends it to one
cached ``(values, prefix)`` pair, whose prefix sums come from a single
sequential ``np.add.accumulate``, so repeated queries return bit-identical
values.  Concurrent readers need no lock: the pair is replaced whole and
``first`` is deterministic, so each reader gets a consistent pair, same bits.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from collections.abc import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError, step_count

__all__ = [
    "StepSchedule",
    "sqrt_decay",
    "doubling_sqrt",
    "constant",
    "from_table",
    "from_csv",
    "doubling_concat",
    "doubling_block",
]

# Admissible stepsizes are 0 <= eta_t <= 2^440 (about 2.8e132).  The
# floors sum t terms of at most eta_j^2 * t (the quartic floors), times a
# harmonic factor below 2^6 for the averaged floor; arrays hold fewer
# than 2^63 entries, so every such sum stays below 2^(126+6) * eta^2 <=
# 2^1012, short of the float64 maximum (about 2^1024).
MAX_STEP = 2.0**440


class StepSchedule:
    """A deterministic nonnegative stepsize sequence.

    ``first(n)`` returns the ``n`` float64 stepsizes ``eta_0 .. eta_{n-1}``;
    ``length`` is the number of defined indices of a finite table (``None``
    for an infinite sequence); ``label`` names the schedule in reports.
    """

    def __init__(self, first: Callable[[int], np.ndarray], length: int | None = None, label: str = "schedule"):
        self._first = first
        self.length = length
        self.label = label
        self._cache = (np.empty(0, dtype=np.float64), np.zeros(1, dtype=np.float64))

    def _materialise(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Return a ``(values, prefix)`` snapshot covering at least ``n`` values."""
        values, prefix = cache = self._cache
        start = values.shape[0]
        if start >= n:
            return cache
        if self.length is not None and n > self.length:
            raise InvalidParameterError(
                f"schedule '{self.label}' has no value at index {self.length} "
                f"(table covers 0..{self.length - 1})"
            )
        # grow geometrically so ascending scans stay linear overall;
        # tables extend exactly, their values already sit in memory
        target = n if self.length is not None else max(n, 2 * start, 16)
        fresh = np.asarray(self._first(target), dtype=np.float64)[start:]
        bad = ~((fresh >= 0.0) & (fresh <= MAX_STEP))  # NaN fails both sides
        if bad.any():
            t = start + int(np.argmax(bad))
            v = float(fresh[t - start])
            what = "non-finite" if not math.isfinite(v) else "negative" if v < 0 else f"huge ({v:g} > 2^440)"
            raise InvalidParameterError(f"schedule '{self.label}' produced a {what} stepsize at t={t}")
        # the first fill keeps the array ``first`` returned (a table's own
        # array), later ones append; one sequential pass, in place and seeded
        # with the last cached sum, adds in the same order as prefix[t + 1] =
        # prefix[t] + eta_t, so the bits do not depend on how the cache grew
        values = fresh if start == 0 else np.concatenate((values, fresh))
        sums = np.empty(values.shape[0] + 1)
        sums[: start + 1] = prefix
        sums[start + 1 :] = fresh
        np.add.accumulate(sums[start:], out=sums[start:])
        # return the pair built here: another reader may since store a shorter one
        cache = self._cache = (values, sums)
        return cache

    def rate(self, t: int) -> float:
        """Return ``eta_t``."""
        t = step_count(t, 0, "step index")
        values, _ = self._materialise(t + 1)
        return float(values[t])

    def rates(self, n: int) -> np.ndarray:
        """Return ``[eta_0, ..., eta_{n-1}]`` as a fresh array."""
        n = step_count(n, 0, "length")
        values, _ = self._materialise(n)
        return values[:n].copy()

    def prefix_sum(self, t: int) -> float:
        """Return ``sum_{j=0}^{t-1} eta_j`` (empty sum is 0)."""
        t = step_count(t, 0, "prefix length")
        _, prefix = self._materialise(t)
        return float(prefix[t])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StepSchedule({self.label!r})"


# -- canonical builders --------------------------------------------------


def sqrt_decay(D: float, G: float) -> StepSchedule:
    """Schedule ``eta_t = D / (G * sqrt(t+1))``.

    ``D`` is the domain diameter scale and ``G`` the gradient scale; both
    must be positive.
    """
    D, G = float(D), float(G)
    if D <= 0 or G <= 0:
        raise InvalidParameterError("sqrt_decay requires D > 0 and G > 0")
    ratio = D / G
    # IEEE sqrt and division are correctly rounded, so each value equals
    # ratio / math.sqrt(t + 1.0) bit for bit
    return StepSchedule(lambda n: ratio / np.sqrt(np.arange(n) + 1.0), label=f"sqrt_decay(D={D:g},G={G:g})")


def doubling_sqrt(D: float, G: float) -> StepSchedule:
    """Doubling trick: the block of length ``n = 1, 2, 4, ...`` repeats ``D / (G * sqrt(n))`` (``D, G > 0``)."""
    D, G = float(D), float(G)
    if D <= 0 or G <= 0:
        raise InvalidParameterError("doubling_sqrt requires D > 0 and G > 0")
    return doubling_concat(lambda n: [D / (G * n**0.5)] * n, label=f"doubling_sqrt(D={D:g},G={G:g})")


def constant(c: float) -> StepSchedule:
    """Schedule ``eta_t = c`` for all ``t`` (``c >= 0``)."""
    c = float(c)
    if c < 0:
        raise InvalidParameterError("constant schedule requires c >= 0")
    return StepSchedule(lambda n: np.full(n, c), label=f"constant(c={c:g})")


def from_table(values: Sequence[float] | np.ndarray, label: str = "table") -> StepSchedule:
    """Finite table schedule, validated whole at construction; queries past the end raise."""
    table = np.array(values, dtype=np.float64)
    if table.ndim != 1:
        raise InvalidParameterError("schedule table must be one-dimensional")
    schedule = StepSchedule(lambda n: table[:n], length=table.shape[0], label=label)
    schedule.prefix_sum(table.shape[0])
    return schedule


def _cells(line: str) -> list[str] | None:
    """The CSV cells of one line; ``None`` if it does not parse as CSV
    (for one, a cell beyond the csv module's field size limit)."""
    try:
        return next(csv.reader([line]), [])
    except csv.Error:
        return None


def from_csv(path: str) -> StepSchedule:
    """Load a table schedule from a CSV file with header ``t,eta``.

    Lines starting with ``#`` are skipped.  After the header each non-empty
    line holds an int64 ``t`` and a float64 ``eta`` (read as ``float()``
    reads it), in cells that may be quoted or padded; further columns are
    ignored.  Rows may come in any order, with indices ``0..n-1`` each once.
    One numpy text pass reads them all, with no Python object per row.
    Every failure raises :class:`InvalidParameterError` naming the file,
    and for a bad row its 1-based line.
    """
    line_no, line = 0, ""
    # undecodable bytes become lone surrogates, so a bad byte fails the
    # parse of its own line instead of the read of a chunk ahead of it
    with open(path, errors="surrogateescape") as fh:

        def content():
            nonlocal line_no, line
            for line_no, line in enumerate(fh, 1):
                if line[0] != "#":  # a line read from a file is never empty
                    yield line

        lines = content()
        if [h.strip() for h in (_cells(next(lines, "")) or [])[:2]] != ["t", "eta"]:
            raise InvalidParameterError(f"schedule file {path!r} must start with header 't,eta'")
        first = next((row for row in lines if row != "\n"), None)
        if first is None:
            raise InvalidParameterError(f"schedule file {path!r} contains no rows")
        try:
            data = np.loadtxt(
                itertools.chain((first,), lines), dtype=[("t", np.int64), ("eta", np.float64)],
                delimiter=",", quotechar='"', comments=None, usecols=(0, 1), ndmin=1,
            )
        except ValueError as exc:
            # numpy stops at the bad row, so ``line`` is still that row
            row = line.rstrip("\n")
            # a run of plain characters parses as one would: the same cells, none past the field size limit
            cells = _cells(re.sub(r'[^,"]+', "x", row))
            reason = "row without an eta value" if cells is not None and len(cells) < 2 else str(exc).partition(" at row ")[0]
            shown = repr(row) if len(row) <= 80 else f"{row[:80]!r}..."
            raise InvalidParameterError(f"schedule file {path!r} line {line_no} {shown}: {reason}") from exc
    t = data["t"]
    if not np.array_equal(t, np.arange(t.shape[0])):
        order = np.argsort(t, kind="stable")
        if not np.array_equal(t[order], np.arange(t.shape[0])):
            raise InvalidParameterError(f"schedule file {path!r} must have contiguous 0-based indices")
        data = data[order]
    return from_table(data["eta"], label=f"table({path})")


# -- doubling-trick concatenation ----------------------------------------


def doubling_block(t: int) -> tuple[int, int]:
    """Return ``(k, offset)`` for global index ``t``.

    Block ``k`` has length ``2^k`` and covers global indices
    ``[2^k - 1, 2^(k+1) - 2]``, so the blocks partition the naturals.
    """
    t = step_count(t, 0, "step index")
    k = (t + 1).bit_length() - 1
    return k, t - ((1 << k) - 1)


def doubling_concat(block_builder: Callable[[int], Sequence[float] | np.ndarray], label: str = "doubling") -> StepSchedule:
    """Concatenate per-horizon blocks of lengths 1, 2, 4, ...

    ``block_builder(n)`` must return exactly ``n`` nonnegative stepsizes;
    block ``k`` is ``block_builder(2^k)``.  ``first(n)`` rebuilds the
    blocks it spans; the schedule's geometric growth and cache keep the
    total work linear in the largest query.
    """

    def block(k: int) -> np.ndarray:
        n = 1 << k
        vals = np.asarray(list(block_builder(n)), dtype=np.float64)
        if vals.shape != (n,):
            raise InvalidParameterError(f"doubling block builder returned {vals.shape[0]} values for horizon {n}")
        return vals

    block(0)  # validate the builder eagerly on the cheapest block

    def first(n: int) -> np.ndarray:
        last, _ = doubling_block(n - 1)
        return np.concatenate([block(k) for k in range(last + 1)])[:n]

    return StepSchedule(first, label=label)
