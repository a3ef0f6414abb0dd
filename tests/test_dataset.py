import csv
import gc
import io
import itertools
import math
import platform
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from clustersens import (
    ClusteredDataset,
    SchemaError,
    ValidationError,
    load_csv,
    positivity_report,
    write_csv,
)
from clustersens.cli import main
from clustersens.dataset import OPTIONAL_COLUMNS, REQUIRED_COLUMNS, _read_columns
from clustersens.simulation import ScenarioConfig, generate


def make_dataset(rows, scale="continuous"):
    """Dataset from (cluster, outcome, treatment, covariate_x) rows."""
    cluster, outcome, treatment, x = zip(*rows)
    return ClusteredDataset.from_columns(scale, cluster, outcome, treatment, x)


def assert_same_columns(got, expected):
    assert got.scale == expected.scale
    for name in ("outcome", "treatment", "covariate_x", "cluster_codes"):
        got_column, expected_column = getattr(got, name), getattr(expected, name)
        assert np.array_equal(got_column, expected_column), name
        assert got_column.dtype == expected_column.dtype, name
        assert not got_column.flags.writeable and not expected_column.flags.writeable, name
    assert got.cluster_ids == expected.cluster_ids


def small_csv(tmp_path, rows, header="cluster_id,outcome,treatment,covariate_x"):
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def test_load_four_rows_two_clusters(tmp_path):
    path = small_csv(tmp_path, ["c1,1.5,1,0", "c1,2.5,0,1", "c2,0.5,1,1", "c2,-0.5,0,0"])
    ds = load_csv(path, "continuous")
    assert ds.cluster_count == 2
    assert ds.outcome.size == 4
    assert ds.outcome[0] == 1.5
    assert ds.cluster_ids[ds.cluster_codes[2]] == "c2"
    assert ds.cluster_codes.tolist() == [0, 0, 1, 1]


def test_bad_treatment_cites_row(tmp_path):
    path = small_csv(tmp_path, ["c1,1.5,1,0", "c1,2.5,0,1", "c2,0.5,2,1", "c2,-0.5,0,0"])
    with pytest.raises(ValidationError, match="row 3"):
        load_csv(path, "continuous")


def test_missing_column_named(tmp_path):
    path = small_csv(tmp_path, ["c1,1.5,1"], header="cluster_id,outcome,treatment")
    with pytest.raises(SchemaError, match="covariate_x"):
        load_csv(path, "continuous")


def test_binary_scale_rejects_non_binary_outcome(tmp_path):
    path = small_csv(tmp_path, ["c1,1,1,0", "c1,0.25,0,1"])
    with pytest.raises(ValidationError, match="row 2"):
        load_csv(path, "binary")


def test_missing_value_rejected(tmp_path):
    path = small_csv(tmp_path, ["c1,1.5,1,0", "c1,,0,1"])
    with pytest.raises(ValidationError, match="row 2"):
        load_csv(path, "continuous")


def test_extra_truth_u_column_ignored_by_load_csv_and_fit(tmp_path):
    # a truth_u column, once the simulated confounder, is not read: neither
    # an unparseable value nor a missing one is refused
    config = ScenarioConfig(kind="single_continuous", clusters=30, cluster_size=3,
                            replications=1, seed=7)
    plain = tmp_path / "plain.csv"
    write_csv(generate(config, 0), plain)
    header, *rows = plain.read_text().splitlines()
    truth_u = ["0.77", "abc", ""] + ["-0.3"] * (len(rows) - 3)
    extra = tmp_path / "extra.csv"
    extra.write_text(f"{header},study_id,truth_u\n" + "".join(
        f"{row},s1,{u}\n" for row, u in zip(rows, truth_u)
    ))
    assert_same_columns(load_csv(extra, "continuous"), load_csv(plain, "continuous"))
    runner = CliRunner()
    fits = [runner.invoke(main, ["fit", str(path), "--scale", "continuous"])
            for path in (plain, extra)]
    assert [fit.exit_code for fit in fits] == [0, 0]
    assert fits[1].stdout == fits[0].stdout


def test_two_studies_in_one_file_refused(tmp_path):
    # the same cluster labels in two studies would merge into one cluster
    path = small_csv(
        tmp_path,
        ["1,1.5,1,0,s1", "1,2.5,0,1,s2", "2,0.5,1,1,s1", "2,-0.5,0,0,s3"],
        header="cluster_id,outcome,treatment,covariate_x,study_id",
    )
    with pytest.raises(ValidationError) as caught:
        load_csv(path, "continuous")
    assert str(caught.value) == (
        f"{path}: study_id holds 3 studies, first 's1' and 's2', but a dataset is one study: "
        "split the file by study, or drop the study_id column to fit the rows as one study"
    )


@pytest.mark.parametrize(
    "rows, message",
    [
        # a missing study_id is a missing value, reported before the study count
        (["1,1.5,1,0,s1", "1,2.5,0,1,"], "missing value for 'study_id' at row 2"),
        # the study count comes before number parsing and the row checks
        (["1,x,1,0,s1", "1,2.5,7,1,s2"], "study_id holds 2 studies"),
        (["1,x,7,0,s1", "1,2.5,0,1,s1"], "cannot parse outcome='x' as a number at row 1"),
        (["1,1.5,7,0,s1", "1,2.5,0,1,s1"], "treatment must be 0 or 1, got 7.0 at row 1"),
    ],
    ids=["missing-study-id", "studies-before-parsing", "parsing", "row-check"],
)
def test_load_csv_errors_name_the_file_in_order(tmp_path, rows, message):
    path = small_csv(tmp_path, rows, header="cluster_id,outcome,treatment,covariate_x,study_id")
    with pytest.raises(ValidationError) as caught:
        load_csv(path, "continuous")
    assert str(caught.value).startswith(f"{path}: {message}")
    assert str(caught.value).count(str(path)) == 1


def test_round_trip_identity(tmp_path):
    ds = make_dataset([("a", 1.5e-7, 1, 0.0), ("a", -2.25, 0, 1.0), ("b", 3.0, 1, 1.0)])
    path = tmp_path / "round.csv"
    write_csv(ds, path)
    ds2 = load_csv(path, "continuous")
    assert_same_columns(ds2, ds)
    assert ds2.cluster_count == ds.cluster_count


record_values = st.tuples(
    st.sampled_from(["a", "b", "c", "d"]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=1),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)


@settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(record_values, min_size=1, max_size=25))
def test_round_trip_identity_property(tmp_path, rows):
    ds = make_dataset(rows)
    path = tmp_path / "prop.csv"
    write_csv(ds, path)
    assert_same_columns(load_csv(path, "continuous"), ds)


def test_cluster_count_invariant_to_reordering(tmp_path):
    rows = ["c1,1.0,1,0", "c2,2.0,0,1", "c1,3.0,0,1", "c3,4.0,1,0", "c2,5.0,1,1"]
    ds = load_csv(small_csv(tmp_path, rows), "continuous")
    shuffled = load_csv(small_csv(tmp_path, [rows[i] for i in (4, 2, 0, 3, 1)]), "continuous")
    assert ds.cluster_count == shuffled.cluster_count == 3
    counts = lambda d: sorted(np.bincount(d.cluster_codes).tolist())
    assert counts(ds) == counts(shuffled)


GENERATED_SCENARIOS = {
    "single_continuous": dict(
        kind="single_continuous", clusters=100, cluster_size=3, replications=1, seed=7,
        true_betas=(1.0, -1.0, 3.0, 1.0), theta=0.5, sigma_u2=0.25, nu=4.0, phi=1.0,
    ),
    "single_binary": dict(
        kind="single_binary", clusters=50, cluster_size=4, replications=1, seed=7,
        true_betas=(-1.0, 1.0, 1.0, -0.5), theta=-0.5, sigma_u2=1.0, nu=1.0,
    ),
    "meta": dict(kind="meta", clusters=60, cluster_size=3, studies=4, replications=1, seed=7),
}


@pytest.mark.parametrize("kind", sorted(GENERATED_SCENARIOS))
def test_generated_scenario_round_trips(tmp_path, kind):
    # the generator builds datasets from known cluster codes; load_csv codes
    # the written labels, and the two must agree column for column
    config = ScenarioConfig(**GENERATED_SCENARIOS[kind])
    out = generate(config, 0)
    for ds in out if kind == "meta" else [out]:
        assert ds.outcome.size == ds.cluster_count * config.cluster_size
        path = tmp_path / "scenario.csv"
        write_csv(ds, path)
        assert_same_columns(load_csv(path, ds.scale), ds)


def whole_file_read_columns(path, required, optional=()) -> dict:
    """Reference for ``_read_columns``: the reader that held every row of the file at once."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty file, header row required")
        for col in required:
            if col not in header:
                raise SchemaError(f"missing required column {col!r}")
        rows = [row for row in reader if row]
    columns = list(itertools.zip_longest(*rows, fillvalue=""))
    names = tuple(required) + tuple(c for c in optional if c in header)
    texts = {}
    for name in names:
        i = header.index(name)
        texts[name] = columns[i] if i < len(columns) else ("",) * len(rows)
    missing = [(col.index(""), k) for k, col in enumerate(texts.values()) if "" in col]
    if missing:
        row, k = min(missing)
        raise ValidationError(f"missing value for {names[k]!r} at row {row + 1}")
    return texts


def columns_or_error(reader, path):
    try:
        texts = reader(path, REQUIRED_COLUMNS, OPTIONAL_COLUMNS)
    except ValidationError as exc:
        return type(exc), str(exc)
    return {name: list(column) for name, column in texts.items()}


# fields with commas, quotes, line breaks and spaces make csv quote them
csv_field = st.text(alphabet='ab1.,"\n\r -', max_size=4)


@st.composite
def csv_files(draw):
    """A header of the required columns, an optional study_id and an extra
    column in some order, then 511 to 1,025 rows: copies of one base row, with
    some rows replaced by blank lines or by short, long or empty-field rows."""
    header = draw(st.permutations(
        [*REQUIRED_COLUMNS, *draw(st.sets(st.sampled_from(["study_id", "note"])))]
    ))
    # a base row one field short leaves a column past the width of whole chunks
    width = draw(st.sampled_from([len(header), len(header) - 1, len(header) + 1]))
    base_row = draw(st.lists(csv_field.filter(bool), min_size=width, max_size=width))
    n_rows = draw(st.sampled_from([511, 512, 513, 1025]))
    other_rows = draw(st.dictionaries(
        st.one_of(st.integers(0, n_rows - 1), st.sampled_from([510, 511, 512, 1023, 1024])),
        st.none() | st.lists(csv_field, max_size=len(header) + 2),
        max_size=8,
    ))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for i in range(n_rows):
        row = other_rows.get(i, base_row)
        if row is None:
            buf.write("\r\n")
        else:
            writer.writerow(row)
    return buf.getvalue()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_files())
def test_read_columns_matches_the_whole_file_reader(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = columns_or_error(whole_file_read_columns, path)
    assert columns_or_error(_read_columns, path) == expected


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="counts the collections of CPython's collector")
@pytest.mark.parametrize("ragged", [False, True], ids=["one-width", "ragged"])
def test_load_csv_of_30k_rows_sets_off_no_garbage_collection(tmp_path, ragged):
    rng = np.random.default_rng(11)
    n = 30_000
    y = rng.normal(size=n).tolist()
    a, x = rng.integers(0, 2, (2, n)).tolist()
    # a ragged file gives every hundredth row a note the others leave out
    notes = [",note" if ragged and i % 100 == 0 else "" for i in range(n)]
    path = tmp_path / "big.csv"
    path.write_text("cluster_id,outcome,treatment,covariate_x,note\n" + "".join(
        f"{i // 3 + 1},{y[i]!r},{a[i]},{x[i]}.0{notes[i]}\n" for i in range(n)
    ))
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(700, 10, 10)  # CPython's defaults
    try:
        gc.collect()
        before = [generation["collections"] for generation in gc.get_stats()]
        ds = load_csv(path, "continuous")
        after = [generation["collections"] for generation in gc.get_stats()]
    finally:
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()
    assert ds.outcome.size == n
    young, _, full = (end - start for start, end in zip(before, after))
    # the reader that held all 30k rows at once ran about 77 young collections
    assert young <= 3
    assert full == 0


def test_positivity_flags_empty_stratum():
    ds = make_dataset([("a", 1.0, 0, 1.0), ("a", 2.0, 0, 1.0), ("b", 3.0, 1, 0.0), ("b", 0.0, 0, 0.0)])
    report = positivity_report(ds)
    assert report.flagged_values == (1.0,)
    by_x = {s.covariate_x: s for s in report.strata}
    assert by_x[1.0].treated == 0 and by_x[1.0].control == 2
    assert by_x[0.0].treated == 1 and by_x[0.0].control == 1


def test_positivity_balanced_no_flags():
    ds = make_dataset([("a", 1.0, 1, 0.0), ("a", 2.0, 0, 0.0), ("b", 3.0, 1, 1.0), ("b", 0.0, 0, 1.0)])
    report = positivity_report(ds)
    assert report.flagged_values == ()


def test_positivity_on_generated_scenario():
    config = ScenarioConfig(
        kind="single_continuous", clusters=100, cluster_size=3, replications=1, seed=11,
    )
    report = positivity_report(generate(config, 0))
    assert report.flagged_values == ()
    assert {s.covariate_x for s in report.strata} == {0.0, 1.0}


def test_positivity_matches_per_row_count():
    config = ScenarioConfig(
        kind="single_continuous", clusters=40, cluster_size=3, replications=1, seed=12,
    )
    ds = generate(config, 0)
    counts = {}
    for xv, av in zip(ds.covariate_x.tolist(), ds.treatment.tolist()):
        counts.setdefault(xv, [0, 0])[int(av)] += 1
    expected = [(xv, counts[xv][1], counts[xv][0]) for xv in sorted(counts)]
    got = [(s.covariate_x, s.treated, s.control) for s in positivity_report(ds).strata]
    assert got == expected


GOOD_COLUMNS = dict(
    cluster_id=["a", "a", "b", "b"],
    outcome=[1.0, 0.0, 1.0, 0.0],
    treatment=[1, 0, 1, 0],
    covariate_x=[0.0, 1.0, 1.0, 0.0],
)


@pytest.mark.parametrize(
    "scale, change, message",
    [
        ("continuous", {"treatment": [1, 0, 2, 0]}, "treatment must be 0 or 1, got 2.0 at row 3"),
        ("continuous", {"treatment": [1, math.nan, 1, 0]}, "treatment must be 0 or 1, got nan at row 2"),
        ("continuous", {"outcome": [1.0, math.nan, 1.0, 0.0]}, "non-finite outcome at row 2"),
        ("binary", {"outcome": [1.0, 0.0, 0.0, 0.5]},
         "binary-scale outcome must be 0 or 1, got 0.5 at row 4"),
        ("continuous", {"covariate_x": [0.0, 1.0, 1.0, math.inf]}, "non-finite covariate_x at row 4"),
        ("continuous", {"treatment": [1, 0, 1]},
         "column treatment has 3 values for 4 cluster_id rows: row 4 is incomplete"),
        ("continuous", {"outcome": [1.0, 0.0, 1.0, 0.0, 1.0]},
         "column outcome has 5 values for 4 cluster_id rows: row 5 is incomplete"),
        # the first offending row is reported, whichever check it fails
        ("continuous", {"treatment": [1, 0, 1, 7], "covariate_x": [0.0, 1.0, math.nan, 0.0]},
         "non-finite covariate_x at row 3"),
    ],
    ids=[
        "bad-treatment", "nan-treatment", "non-finite-outcome", "non-binary-outcome",
        "non-finite-covariate", "short-column", "long-column", "first-row-wins",
    ],
)
def test_from_columns_rejection_names_row(scale, change, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        ClusteredDataset.from_columns(scale, **{**GOOD_COLUMNS, **change})


def test_from_columns_rejects_empty_dataset_and_unknown_scale():
    with pytest.raises(ValidationError, match="dataset has no records"):
        ClusteredDataset.from_columns("continuous", [], [], [], [])
    with pytest.raises(ValidationError, match="unknown scale"):
        ClusteredDataset.from_columns("ordinal", **GOOD_COLUMNS)


def test_from_columns_copies_and_freezes_columns():
    outcome = np.array(GOOD_COLUMNS["outcome"])
    ds = ClusteredDataset.from_columns("continuous", **{**GOOD_COLUMNS, "outcome": outcome})
    outcome[0] = 99.0
    assert ds.outcome[0] == 1.0
    with pytest.raises(ValueError):
        ds.outcome[0] = 5.0
    assert ds.cluster_ids == ("a", "b")
    assert ds.treatment.dtype == np.float64 and ds.cluster_codes.dtype == np.int64
