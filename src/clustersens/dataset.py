"""Long-format clustered observational data: ingestion, validation, strata checks.

A dataset holds validated, read-only numpy columns: ``outcome``,
``treatment`` and ``covariate_x`` as float64, and ``cluster_codes``
(int64, in first-appearance order) indexing the ``cluster_ids`` labels.
``ClusteredDataset.from_columns`` codes the cluster labels and passes the
codes to ``_from_codes``, the one constructor, which checks every row
once; the simulator, whose codes are known, calls it directly. A dataset
is one study: every fitter fits it as one random-intercept model, and
studies meet only through their study-level estimates (``meta``).
"""

from __future__ import annotations

import csv
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field

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
        return ClusteredDataset._from_codes(
            scale, codes, tuple(map(str, index)), outcome, treatment, covariate_x
        )

    @staticmethod
    def _from_codes(
        scale: str, codes: np.ndarray, cluster_ids, outcome, treatment, covariate_x
    ) -> "ClusteredDataset":
        """Check every row of the columns and build a dataset.

        ``codes`` is a new int64 array indexing ``cluster_ids`` in
        first-appearance order; it is frozen in place.
        """
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

        # (message, column, bad rows); the first offending row is reported,
        # and on that row the first check in this order that fails
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
        if failures:
            row, k = min(failures)
            message, column, _ = checks[k]
            raise ValidationError(f"{message.format(column[row].item())} at row {row + 1}")

        return ClusteredDataset(
            scale=scale,
            outcome=y,
            treatment=a,
            covariate_x=x,
            cluster_codes=codes,
            cluster_ids=cluster_ids,
        )

    @property
    def cluster_count(self) -> int:
        return len(self.cluster_ids)


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
            for col in required:
                if col not in header:
                    raise SchemaError(f"missing required column {col!r}")
            names = tuple(required) + tuple(c for c in optional if c in header)
            indices = [header.index(name) for name in names]
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


def load_csv(path, scale: str) -> ClusteredDataset:
    """Read a comma-delimited UTF-8 file with a header row into a dataset.

    Required columns: cluster_id, outcome, treatment, covariate_x.
    Optional: study_id. Other columns are ignored. Row order is preserved
    and blank lines are skipped; missing values are rejected. A file is one
    study: more than one distinct study_id is refused (fitting would merge
    the studies' clusters that share a label), and the column is then
    dropped.
    """
    with _path_prefixed(path):
        texts = _read_columns(path, REQUIRED_COLUMNS, OPTIONAL_COLUMNS)
        studies = list(dict.fromkeys(texts.pop("study_id", ())))
        if len(studies) > 1:
            raise ValidationError(
                f"study_id holds {len(studies)} studies, first {studies[0]!r} and "
                f"{studies[1]!r}, but a dataset is one study: split the file by study, or drop "
                "the study_id column to fit the rows as one study"
            )
        names = ("treatment", "outcome", "covariate_x")  # parsed, and refused, in this order
        a, y, x = (_parse_column(texts[name], name) for name in names)
        return ClusteredDataset.from_columns(scale, texts["cluster_id"], y, a, x)


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
