"""Right-censored samples, Kaplan-Meier estimation, and data cuts."""
from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

__all__ = ["SurvSample", "KmCurve", "km_fit", "cut_data", "read_survival_csv", "write_table"]

NEVER_EVENT = "never_event"


@dataclass(frozen=True)
class SurvSample:
    """Right-censored observations: follow-up time and event indicator.

    Calendar fields (``rand_time``, ``follow_abs_time``) and the reason a
    subject was censored are optional; they are required only by
    :func:`cut_data`. Times must be finite except for subjects that would
    never have an event (``censor_reason == "never_event"``), which may carry
    ``inf`` until a data cut re-censors them.

    ``time`` and ``event`` are read-only views (writing through the sample
    raises ``ValueError``; an array passed in stays writable), so the view
    sorted by time that fits and :func:`km_fit` read is built once per
    sample, on first use, and kept with it.
    """

    time: np.ndarray
    event: np.ndarray
    rand_time: np.ndarray | None = None
    follow_abs_time: np.ndarray | None = None
    censor_reason: np.ndarray | None = None
    ids: np.ndarray | None = None

    def __post_init__(self):
        time = np.asarray(self.time, dtype=float)
        event = np.asarray(self.event)
        if time.ndim != 1 or event.shape != time.shape:
            raise ValueError("time and event must be 1-D arrays of equal length")
        if not (time >= 0.0).all():  # NaN fails too
            raise ValueError("times must be nonnegative")
        # checked before the cast, which would wrap 257 to 1 and cut 0.5 to 0
        if not ((event == 0) | (event == 1)).all():
            raise ValueError("event indicator must be 0 or 1")
        event = event.astype(np.int8, copy=False)
        reasons = self.censor_reason
        if reasons is not None:
            reasons = np.asarray(reasons, dtype=object)
            if reasons.shape != time.shape:
                raise ValueError("censor_reason length mismatch")
        inf_mask = np.isinf(time)
        if inf_mask.any():
            if reasons is None or not all(reasons[inf_mask] == NEVER_EVENT):
                raise ValueError("infinite time allowed only with censor_reason == 'never_event'")
        for name, column in (("time", time), ("event", event)):
            column = column.view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "censor_reason", reasons)
        for name in ("rand_time", "follow_abs_time"):
            val = getattr(self, name)
            if val is not None:
                val = np.asarray(val, dtype=float)
                if val.shape != time.shape:
                    raise ValueError(f"{name} length mismatch")
                object.__setattr__(self, name, val)
        if self.ids is not None:
            object.__setattr__(self, "ids", np.asarray(self.ids))

    def __reduce__(self):
        # pickled and copied through __init__: read-only columns, no cached view
        return SurvSample, tuple(getattr(self, f.name) for f in fields(self))

    def __len__(self) -> int:
        return len(self.time)

    @property
    def n_events(self) -> int:
        return int(self.event.sum())

    @cached_property
    def _sorted(self) -> "_Sorted":
        return _Sorted(self)

    def subset(self, idx) -> "SurvSample":
        """New sample containing the rows selected by ``idx`` (any numpy index)."""
        pick = lambda a: None if a is None else a[idx]
        return SurvSample(
            time=self.time[idx],
            event=self.event[idx],
            rand_time=pick(self.rand_time),
            follow_abs_time=pick(self.follow_abs_time),
            censor_reason=pick(self.censor_reason),
            ids=pick(self.ids),
        )


@dataclass(frozen=True)
class KmCurve:
    """Product-limit survival estimate: one step per distinct event time."""

    time: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    n_event: np.ndarray

    def log_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(event time, log survival) pairs at steps with positive survival.

        These are the regression points for the log-survival change-point
        search; the final step is dropped when the estimate reaches 0.
        """
        keep = self.survival > 0.0
        return self.time[keep], np.log(self.survival[keep])


class _Sorted:
    """A sample sorted by follow-up time: the sorted times with their prefix
    sums, and the distinct event times with their event counts and the
    number of events before each (``cum_events``, one entry longer). Built
    once per sample, as its ``_sorted``; read it, never write it."""

    def __init__(self, data: SurvSample):
        self.time = np.sort(data.time)
        self.event_times, self.event_counts = np.unique(data.time[data.event == 1], return_counts=True)
        self.cum_events = np.concatenate(([0], np.cumsum(self.event_counts)))

    @cached_property
    def prefix(self) -> np.ndarray:
        """Running sums of the sorted times, from 0 (Kaplan-Meier needs none)."""
        return np.concatenate(([0.0], np.cumsum(self.time)))

    def events_before(self, d):
        """Number of events at times < d."""
        return self.cum_events[np.searchsorted(self.event_times, d, side="left")]

    def at_risk(self, d):
        """Number of subjects followed to d or later."""
        return len(self.time) - np.searchsorted(self.time, d, side="left")

    def exposure_to(self, d):
        """Follow-up time spent before d: sum_i min(T_i, d)."""
        k = np.searchsorted(self.time, d, side="left")
        return self.prefix[k] + d * (len(self.time) - k)

    def tally(self, values: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Events and exposure of the pieces between consecutive edges, two
        (k - 1, rows) arrays, for each column of ``edges`` (k, rows): k
        increasing indices into (0, *values, past the largest time), with
        ``values`` sorted.

        Each value is looked up once, and a column only gathers and
        subtracts, so the cost is O(len(values) log n + rows k). A piece that
        starts at or past the largest time has exactly 0 exposure, not the
        rounding noise the running sums leave when that time is tied."""
        before = np.concatenate(([0], self.events_before(values), self.cum_events[-1:]))
        to = np.concatenate(([0.0], self.exposure_to(values), self.prefix[-1:]))
        idle = np.concatenate(([False], values >= self.time[-1], [True]))
        exposure = np.diff(to[edges], axis=0)
        exposure[idle[edges[:-1]]] = 0.0
        return np.diff(before[edges], axis=0), exposure

    def km(self) -> KmCurve:
        """Product-limit estimate; see :func:`km_fit`."""
        at_risk = self.at_risk(self.event_times)
        surv = np.cumprod(1.0 - self.event_counts / at_risk)
        # copies: a caller may write to the curve, never to the sample's view
        return KmCurve(time=self.event_times.copy(), survival=surv, at_risk=at_risk,
                       n_event=self.event_counts.copy())


def km_fit(data: SurvSample) -> KmCurve:
    """Kaplan-Meier estimate of the survival function.

    Ties between an event and a censoring at the same time are resolved by
    processing events first (censored subjects at time t are still at risk
    for the event step at t).
    """
    if len(data) == 0:
        raise ValueError("cannot fit a KM curve to an empty sample")
    return data._sorted.km()


def cut_data(data: SurvSample, cut: float) -> SurvSample:
    """Truncate a sample at a clinical cut-off time.

    Subjects randomized after ``cut`` are dropped. Retained subjects whose
    absolute follow-up end exceeds ``cut`` are re-censored there: time
    becomes ``cut - rand_time``, the event flag clears, and the censor
    reason is set to ``"cut"``. Everyone else is returned unchanged, so
    cutting twice at the same time is a no-op.
    """
    if data.rand_time is None or data.follow_abs_time is None:
        raise ValueError("cut_data requires rand_time and follow_abs_time fields")
    if not (np.isfinite(cut) and cut > 0.0):
        raise ValueError("cut must be a positive finite time")
    keep = data.rand_time <= cut
    kept = data.subset(keep)
    recensor = kept.follow_abs_time > cut
    time = np.where(recensor, cut - kept.rand_time, kept.time)
    event = np.where(recensor, 0, kept.event).astype(np.int8)
    follow_abs = np.where(recensor, cut, kept.follow_abs_time)
    reasons = (
        kept.censor_reason.copy()
        if kept.censor_reason is not None
        else np.full(len(kept), None, dtype=object)
    )
    reasons[recensor] = "cut"
    return SurvSample(
        time=time,
        event=event,
        rand_time=kept.rand_time,
        follow_abs_time=follow_abs,
        censor_reason=reasons,
        ids=kept.ids,
    )


_NONFINITE_CELLS = {"inf": "Inf", "-inf": "-Inf", "nan": "NA"}
_WRITE_BLOCK_ROWS = 1024
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _format_cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        text = repr(value)
        return _NONFINITE_CELLS.get(text, text)
    return str(value)


def _quote_minimal(cells: list[str]) -> list[str]:
    """csv's QUOTE_MINIMAL rule: a cell holding a comma, ``"``, CR or LF is
    wrapped in quotes with its quotes doubled. One scan finds whether any
    cell of the column needs it."""
    if not _NEEDS_QUOTES.search("".join(cells)):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]


def _format_column(arr: np.ndarray) -> list[str]:
    kind = arr.dtype.kind
    if kind == "f":
        cells = list(map(repr, arr.tolist()))
        for i in np.flatnonzero(~np.isfinite(arr)).tolist():
            cells[i] = _NONFINITE_CELLS.get(cells[i], cells[i])
        return cells
    if kind in "biu":
        return list(map(str, arr.tolist()))
    if kind == "U":
        return _quote_minimal(arr.tolist())
    return _quote_minimal([v if type(v) is str else _format_cell(v) for v in arr.tolist()])


def _lines(columns: list[list[str]]) -> str:
    """The rows of formatted, quoted ``columns``, each ending in ``\\r\\n``.
    As csv.writer does, a row of one empty cell is written as ``""``."""
    if len(columns) == 1:
        rows = ['""' if c == "" else c for c in columns[0]]
    else:
        rows = map(",".join, zip(*columns))
    return "\r\n".join(rows) + "\r\n"


def write_table(path, columns: Mapping[str, Sequence]) -> None:
    """Write equal-length 1-D ``columns`` (header -> values, in order) as CSV.

    Every cell follows one rule, the one :func:`read_survival_csv` parses:
    a float is written with ``repr`` (so it reads back exactly), +inf as
    ``Inf``, -inf as ``-Inf``, NaN and ``None`` as ``NA``; any other value
    with ``str``. Rows end in ``\\r\\n``. Quoting is csv's QUOTE_MINIMAL: a
    header or cell that holds a comma, ``"``, CR or LF is wrapped in quotes
    with its quotes doubled, and a row of one empty cell is written ``""``,
    so the bytes are those ``csv.writer`` would write.

    Cost: one ``repr`` per float cell and one ``str`` per integer or bool
    cell, in a pass over ``tolist()``. A text (``U``) column's ``tolist()``
    goes straight to the scan for quoting; of an object column, only cells
    that are not ``str`` take a formatting call. Rows are joined with
    ``str.join``, and each block of ``_WRITE_BLOCK_ROWS`` rows is one write
    (bounded memory; no csv module). A column that is not 1-D or columns of
    different lengths raise ``ValueError``.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    for name, a in zip(columns, arrays):
        if a.ndim != 1:
            raise ValueError(f"column {name!r} must be 1-D, got shape {a.shape}")
    lengths = {len(a) for a in arrays}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {[len(a) for a in arrays]}")
    n_rows = max(lengths, default=0)
    with open(path, "w", newline="") as fh:
        fh.write(_lines([[name] for name in _quote_minimal([str(n) for n in columns])]))
        for start in range(0, n_rows, _WRITE_BLOCK_ROWS):
            fh.write(_lines([_format_column(a[start:start + _WRITE_BLOCK_ROWS]) for a in arrays]))


def read_survival_csv(
    path,
    time_col: str = "time",
    event_col: str = "event",
    rand_time_col: str | None = None,
    follow_abs_time_col: str | None = None,
    censor_reason_col: str | None = None,
    id_col: str | None = None,
) -> SurvSample:
    """Load a sample from a CSV file with configurable column names.

    Cells follow the rule of :func:`write_table`: a float as ``repr`` writes
    it or ``Inf``/``-Inf`` (any case, spaces around it ignored; ``NA`` is an
    error), an event 0 or 1, and a censor reason ``NA`` or blank for ``None``.
    The header is the first line that is not blank. Cells may be quoted,
    blank lines are skipped, only the requested columns are parsed, and a
    malformed cell or a short row raises ``ValueError``.

    Cost: the header is read with ``csv``, then one ``np.loadtxt`` pass parses
    the requested columns into a structured array (float fields, and object
    fields for the text columns); censor reasons are then stripped cell by cell.
    """
    float_cols = [c for c in (time_col, event_col, rand_time_col, follow_abs_time_col) if c]
    text_cols = [c for c in (censor_reason_col, id_col) if c]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next((row for row in reader if row), None)  # blank lines before it skipped
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        missing = [c for c in float_cols + text_cols if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}; found {header}")
        position = {name: i for i, name in enumerate(header)}  # the last repeated name wins
        fields = [(c, float) for c in float_cols] + [(c, object) for c in text_cols]
        fh.seek(0)
        with warnings.catch_warnings():
            # a header-only file is an empty sample; blank lines are skipped
            warnings.filterwarnings("ignore", r"loadtxt: input contained no data|Input line")
            try:
                # comments=None: the default "#" would cut a cell such as "#3"
                table = np.loadtxt(fh, dtype=[(f"f{i}", kind) for i, (_, kind) in enumerate(fields)],
                                   delimiter=",", quotechar='"', comments=None, skiprows=reader.line_num,
                                   usecols=[position[c] for c, _ in fields], ndmin=1)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    column = {key: table[f"f{i}"] for i, key in enumerate(fields)}
    floats = {c: np.ascontiguousarray(column[c, float]) for c in float_cols}
    event = floats[event_col]
    if not np.isin(event, (0.0, 1.0)).all():
        raise ValueError(f"{path}: {event_col} cells must be 0 or 1")
    reasons = None
    if censor_reason_col is not None:
        stripped = (c.strip() for c in column[censor_reason_col, object].tolist())
        reasons = np.array([None if c in ("", "NA") else c for c in stripped], dtype=object)
    return SurvSample(
        time=floats[time_col],
        event=event.astype(np.int8),
        rand_time=floats.get(rand_time_col),
        follow_abs_time=floats.get(follow_abs_time_col),
        censor_reason=reasons,
        ids=None if id_col is None else column[id_col, object].astype(str),
    )
