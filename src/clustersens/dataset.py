"""Long-format clustered observational data: ingestion, validation, strata checks.

A dataset holds validated, read-only numpy columns: ``outcome``,
``treatment`` and ``covariate_x`` as float64, and ``cluster_codes``
(int64, in first-appearance order) indexing the ``cluster_ids`` labels.
``ClusteredDataset.from_columns``, the one constructor, codes the cluster
labels and checks every row once. A dataset is one study: every fitter
fits it as one random-intercept model, and studies meet only through
their study-level estimates (``meta``). ``_Stack`` lays the columns of
several studies end to end: the REML fitter reads one, and the simulator
builds one and runs the same row checks (``_row_failure``) once over all
of its rows.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import SchemaError, ValidationError

REQUIRED_COLUMNS = ("cluster_id", "outcome", "treatment", "covariate_x")
OPTIONAL_COLUMNS = ("study_id",)
SCALES = ("continuous", "binary")


def _float_column(values) -> np.ndarray:
    out = np.array(values, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ClusteredDataset:
    """Validated columns of one study's long-format data; build with ``from_columns``."""

    scale: str
    outcome: np.ndarray
    treatment: np.ndarray
    covariate_x: np.ndarray
    cluster_codes: np.ndarray
    cluster_ids: tuple[str, ...]

    @staticmethod
    def from_columns(scale: str, cluster_id, outcome, treatment, covariate_x) -> "ClusteredDataset":
        """Validate per-row columns once and build a dataset.

        ``cluster_id`` is a sequence of one hashable label per row; ``str``
        of each distinct label becomes its ``cluster_ids`` entry. A rejected
        row is reported by its 1-based number.
        """
        index = {label: k for k, label in enumerate(dict.fromkeys(cluster_id))}
        codes = np.fromiter(map(index.__getitem__, cluster_id), dtype=np.int64)
        if scale not in SCALES:
            raise ValidationError(f"unknown scale {scale!r}; expected one of {SCALES}")
        n = codes.size
        if n == 0:
            raise ValidationError("dataset has no records")
        codes.flags.writeable = False
        y = _float_column(outcome)
        a = _float_column(treatment)
        x = _float_column(covariate_x)
        for name, column in (("outcome", y), ("treatment", a), ("covariate_x", x)):
            if column.shape != (n,):
                raise ValidationError(
                    f"column {name} has {column.size} values for {n} cluster_id rows: "
                    f"row {min(column.size, n) + 1} is incomplete"
                )

        failure = _row_failure(scale, y, a, x)
        if failure is not None:
            row, message = failure
            raise ValidationError(f"{message} at row {row + 1}")

        return ClusteredDataset(
            scale=scale,
            outcome=y,
            treatment=a,
            covariate_x=x,
            cluster_codes=codes,
            cluster_ids=tuple(map(str, index)),
        )

    @property
    def cluster_count(self) -> int:
        return len(self.cluster_ids)


def _row_failure(scale: str, y, a, x):
    """``(row, message)`` of the columns' first bad row, 0-based, or None.

    On that row the first check in this order that fails is reported:
    treatment, outcome, binary-scale outcome, covariate.
    """
    checks = [
        ("treatment must be 0 or 1, got {!r}", a, (a != 0.0) & (a != 1.0)),
        ("non-finite outcome", y, ~np.isfinite(y)),
        ("non-finite covariate_x", x, ~np.isfinite(x)),
    ]
    if scale == "binary":
        checks.insert(
            2, ("binary-scale outcome must be 0 or 1, got {!r}", y, (y != 0.0) & (y != 1.0))
        )
    failures = [(int(np.argmax(bad)), k) for k, (_, _, bad) in enumerate(checks) if bad.any()]
    if not failures:
        return None
    row, k = min(failures)
    message, column, _ = checks[k]
    return row, message.format(column[row].item())


@lru_cache(maxsize=128)  # holds the 101 study sizes a meta scenario draws
def _cluster_labels(j: int) -> tuple[str, ...]:
    """The labels "1" to "j" of a generated study's clusters, built once per count."""
    return tuple(map(str, range(1, j + 1)))


@dataclass(frozen=True, eq=False)
class _Stack:
    """The columns of K studies of one scale laid end to end, each study's rows together.

    ``cluster_codes`` number the clusters across the stack, study k's after
    study k - 1's; ``rows`` and ``clusters`` hold each study's row and
    cluster counts. The columns are frozen in place. A stack is what the
    REML fitter reads (``fit_lmm_batch`` concatenates its datasets into one)
    and what the simulator builds.
    """

    scale: str
    outcome: np.ndarray  # (N,) float64
    treatment: np.ndarray  # (N,) float64
    covariate_x: np.ndarray  # (N,) float64
    cluster_codes: np.ndarray  # (N,) int64
    rows: np.ndarray  # (K,) int64
    clusters: np.ndarray  # (K,) int64

    def __post_init__(self):
        for column in (self.outcome, self.treatment, self.covariate_x, self.cluster_codes):
            column.flags.writeable = False

    @staticmethod
    def of(datasets) -> "_Stack":
        """The datasets, checked already, concatenated in order; they must share one scale."""
        scales = list(dict.fromkeys(ds.scale for ds in datasets))
        if len(scales) > 1:
            raise ValidationError(f"a stack holds one scale, got {scales[0]!r} and {scales[1]!r}")
        rows = np.array([ds.outcome.size for ds in datasets])
        clusters = np.array([ds.cluster_count for ds in datasets])
        codes = np.concatenate([ds.cluster_codes for ds in datasets])
        codes += np.repeat(np.cumsum(clusters) - clusters, rows)
        columns = (
            np.concatenate([getattr(ds, name) for ds in datasets])
            for name in ("outcome", "treatment", "covariate_x")
        )
        return _Stack(scales[0], *columns, codes, rows, clusters)

    def check_rows(self, study_name) -> None:
        """Run ``from_columns``'s row checks once over the stack.

        The first bad row is refused with a ValidationError that starts with
        ``study_name(k)`` for its study k (0-based) and gives its 1-based row
        within that study.
        """
        failure = _row_failure(self.scale, self.outcome, self.treatment, self.covariate_x)
        if failure is not None:
            row, message = failure
            ends = np.cumsum(self.rows)
            k = int(np.searchsorted(ends, row, side="right"))
            within = row - int(ends[k] - self.rows[k])
            raise ValidationError(f"{study_name(k)}: {message} at row {within + 1}")

    def cut(self, per: int) -> list["_Stack"]:
        """The studies in consecutive runs of ``per``, each run a stack of its own."""
        rows = [0, *itertools.accumulate(self.rows.tolist())]
        clusters = [0, *itertools.accumulate(self.clusters.tolist())]
        parts = []
        for k in range(0, self.rows.size, per):
            end = min(k + per, self.rows.size)
            cut = slice(rows[k], rows[end])
            parts.append(_Stack(
                self.scale, self.outcome[cut], self.treatment[cut], self.covariate_x[cut],
                self.cluster_codes[cut] - clusters[k], self.rows[k:end], self.clusters[k:end],
            ))
        return parts

    def dataset(self) -> ClusteredDataset:
        """A one-study stack as a dataset, its clusters labelled "1" to "j" as generated."""
        (j,) = self.clusters.tolist()
        return ClusteredDataset(
            self.scale, self.outcome, self.treatment, self.covariate_x, self.cluster_codes,
            _cluster_labels(j),
        )


def _parse_column(texts, column: str) -> np.ndarray:
    try:
        return np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
    except ValueError:
        for row, text in enumerate(texts, start=1):
            try:
                float(text)
            except ValueError as exc:
                raise ValidationError(
                    f"cannot parse {column}={text!r} as a number at row {row}"
                ) from exc
        raise


@contextmanager
def _path_prefixed(path):
    """Start the message of any ``ValidationError`` raised inside with
    ``<path>: ``, and refuse text read inside that is not UTF-8 as one."""
    try:
        yield
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValidationError(f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from exc
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _json_number(value) -> float:
    """A JSON number as a float; a bool, string, null, array or object is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _json_numbers(value) -> list:
    """A JSON array of numbers as a list of floats."""
    if not isinstance(value, list):
        raise ValueError(f"expected an array of numbers, got {value!r}")
    return [_json_number(v) for v in value]


def _json_integer(value, minimum=None) -> int:
    """A JSON number with no fractional part as an int, at least ``minimum`` if given."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"expected an integer >= {minimum}, got {value!r}")
    return int(value)


# rows held at once: a chunk's row lists plus the one iterator zip_longest makes
# per row stay under the young garbage-collector generation's threshold (700)
# while a file has no more than a few dozen columns, so reading sets off no collection
_CHUNK_ROWS = 256


def _header_columns(header, required, optional=()):
    """The ``required`` and present ``optional`` names of a header row, and their indices.

    A missing required column is refused first, then a needed name that
    the header holds twice; other columns may repeat.
    """
    for col in required:
        if col not in header:
            raise SchemaError(f"missing required column {col!r}")
    names = tuple(required) + tuple(c for c in optional if c in header)
    indices = [header.index(name) for name in names]
    for name, i in zip(names, indices):
        if name in header[i + 1:]:
            raise SchemaError(
                f"column {name!r} appears twice in the header "
                f"(columns {i + 1} and {header.index(name, i + 1) + 1})"
            )
    return names, indices


def _read_columns(path, required, optional=()) -> dict:
    """Text columns of a comma-delimited UTF-8 file with a header row.

    Returns lists of the ``required`` columns and of those ``optional``
    ones the header names. A byte-order mark is dropped, blank lines are
    skipped and short rows are padded with "". The rows are read
    ``_CHUNK_ROWS`` at a time and each chunk's fields are moved into the
    columns before the next is read, so the whole file is never held as
    rows. A missing value is reported at its first row, then first column,
    after the whole file is read; text not readable as CSV is refused
    first, and text that is not UTF-8 is left to ``_path_prefixed``.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError("empty file, header row required")
            names, indices = _header_columns(header, required, optional)
            texts = {name: [] for name in names}
            data = filter(None, reader)  # blank lines are skipped
            while rows := list(itertools.islice(data, _CHUNK_ROWS)):
                columns = list(itertools.zip_longest(*rows, fillvalue=""))
                for column, i in zip(texts.values(), indices):
                    column.extend(columns[i] if i < len(columns) else ("",) * len(rows))
                del rows, columns  # the next chunk is read after this one's are freed
        except csv.Error as exc:
            raise ValidationError(f"unreadable CSV at line {reader.line_num}: {exc}") from exc
    missing = [(col.index(""), k) for k, col in enumerate(texts.values()) if "" in col]
    if missing:
        row, k = min(missing)
        raise ValidationError(f"missing value for {names[k]!r} at row {row + 1}")
    return texts


def _plain_csv_columns(path):
    """``load_csv``'s columns of a plain file, read by numpy's C text reader; else None.

    A plain file is a regular file of UTF-8 text with no ``"``, no NUL,
    no lone CR and no line longer than csv's field limit, whose header
    names each needed column once and whose needed fields numpy reads in
    every row, with no empty label and one study. Without quotes the csv
    reader splits such a file at the same commas and line ends, and numpy
    reads each number as ``float`` does, so the columns are the csv
    reader's bit for bit. Any other file gives None: the csv reader reads
    it, and words every error.
    """
    with open(path, "rb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            return None  # a pipe can be read only once: leave it to the csv reader
        raw = fh.read()
    lone_cr = b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n")
    if b'"' in raw or b"\0" in raw or lone_cr:
        return None
    line_ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
    if np.diff(line_ends, prepend=-1, append=len(raw)).max() > csv.field_size_limit():
        return None
    try:
        header, _, body = raw.decode("utf-8-sig").partition("\n")
        names, indices = _header_columns(
            header.removesuffix("\r").split(","), REQUIRED_COLUMNS, OPTIONAL_COLUMNS
        )
    except (UnicodeDecodeError, SchemaError):
        return None
    if not body or body.isspace():
        return None  # numpy warns of a file without rows
    dtype = [(name, object if name in ("cluster_id", "study_id") else np.float64)
             for name in names]
    try:
        rows = np.loadtxt(
            io.StringIO(body), dtype, delimiter=",", comments=None, usecols=indices, ndmin=1
        )
    except ValueError:
        return None
    cluster_id = rows["cluster_id"].tolist()
    studies = set(rows["study_id"].tolist()) if "study_id" in names else set()
    if "" in cluster_id or "" in studies or len(studies) > 1:
        return None
    return cluster_id, rows["outcome"], rows["treatment"], rows["covariate_x"]


def load_csv(path, scale: str) -> ClusteredDataset:
    """Read a comma-delimited UTF-8 file with a header row into a dataset.

    Required columns: cluster_id, outcome, treatment, covariate_x.
    Optional: study_id. Other columns are ignored; a required or optional
    one named twice is refused. Row order is preserved and blank lines are
    skipped; missing values are rejected. A file is one study: more than
    one distinct study_id is refused (fitting would merge the studies'
    clusters that share a label), and the column is then dropped. A plain
    file is read by numpy's C reader (``_plain_csv_columns``), any other
    by the csv reader, into the same columns.
    """
    with _path_prefixed(path):
        columns = _plain_csv_columns(path)
        if columns is None:
            texts = _read_columns(path, REQUIRED_COLUMNS, OPTIONAL_COLUMNS)
            studies = list(dict.fromkeys(texts.pop("study_id", ())))
            if len(studies) > 1:
                raise ValidationError(
                    f"study_id holds {len(studies)} studies, first {studies[0]!r} and "
                    f"{studies[1]!r}, but a dataset is one study: split the file by study, or "
                    "drop the study_id column to fit the rows as one study"
                )
            names = ("treatment", "outcome", "covariate_x")  # parsed, and refused, in this order
            a, y, x = (_parse_column(texts[name], name) for name in names)
            columns = texts["cluster_id"], y, a, x
        return ClusteredDataset.from_columns(scale, *columns)


def write_csv(ds: ClusteredDataset, path) -> None:
    """Inverse of load_csv: field-for-field round trip on valid datasets."""
    columns = [
        [ds.cluster_ids[c] for c in ds.cluster_codes.tolist()],
        ds.outcome.tolist(),
        ds.treatment.astype(np.int64).tolist(),
        ds.covariate_x.tolist(),
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        writer.writerows(zip(*columns))


@dataclass(frozen=True)
class PositivityStratum:
    covariate_x: float
    treated: int
    control: int

    @property
    def flagged(self) -> bool:
        return self.treated == 0 or self.control == 0


@dataclass(frozen=True)
class PositivityReport:
    strata: tuple[PositivityStratum, ...] = field(default_factory=tuple)

    @property
    def flagged_values(self) -> tuple[float, ...]:
        return tuple(s.covariate_x for s in self.strata if s.flagged)


def positivity_report(ds: ClusteredDataset) -> PositivityReport:
    """Treated/control counts per distinct covariate value.

    A stratum with no treated or no control units is flagged, never
    raised: empty cells are a finding, not an error.
    """
    values, stratum = np.unique(ds.covariate_x, return_inverse=True)
    treated = np.bincount(stratum[ds.treatment == 1.0], minlength=values.size)
    control = np.bincount(stratum[ds.treatment == 0.0], minlength=values.size)
    strata = tuple(
        PositivityStratum(covariate_x=xv, treated=t, control=c)
        for xv, t, c in zip(values.tolist(), treated.tolist(), control.tolist())
    )
    return PositivityReport(strata=strata)
