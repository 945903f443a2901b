"""Malformed profile files: every reader either loads a trial or raises
``ProfileError`` naming the file.

The named cases are inputs each reader once let through as a bare
``KeyError``, ``TypeError``, ``AttributeError``, ``ValueError`` or
``UnicodeDecodeError``, or (gprof) loaded with rows silently dropped or
misread.  The properties apply 1–5 random character edits to the files of
a written 3-event × 2-thread trial; one edit character is the invalid
UTF-8 byte 0xff.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.perfdmf import (
    ProfileError,
    TrialBuilder,
    read_csv_profile,
    read_gprof_profile,
    read_json_profile,
    read_tau_profile,
    trial_to_dict,
    write_csv_profile,
    write_json_profile,
    write_tau_profile,
)


def small_trial():
    exc = np.array([[10.0, 20.0], [5.0, 5.0], [1.5, 2.5]])
    return (TrialBuilder("fuzz", {"case": "fuzz"})
            .with_events(["main", "loop", "main => loop"])
            .with_threads(2)
            .with_metric("TIME", exc, exc * 2, units="usec")
            .with_metric("L3_MISSES", exc * 100, exc * 200)
            .with_calls(np.full((3, 2), 3.0), np.full((3, 2), 1.0))
            .build())


GPROF_TABLE = """\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 52.10      1.05     1.05      200     5.25     7.85  matxvec
 21.00      1.47     0.42     1000     0.42     0.42  pc_jacobi
 15.50      1.78     0.31                             main
 11.40      2.01     0.23       50     4.60     9.20  exchange_var
"""


def write_doc(tmp_path, doc) -> Path:
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    return path


class TestJsonNamedCases:
    def _doc(self):
        return trial_to_dict(small_trial())

    def _assert_rejected(self, tmp_path, doc, match):
        path = write_doc(tmp_path, doc)
        with pytest.raises(ProfileError, match=match) as err:
            read_json_profile(path)
        assert str(path) in str(err.value)

    def test_non_object_document(self, tmp_path):
        self._assert_rejected(tmp_path, [1, 2], "JSON object")

    def test_non_integer_format_version(self, tmp_path):
        doc = self._doc()
        doc["format_version"] = "x"
        self._assert_rejected(tmp_path, doc, "format_version")

    def test_event_without_name(self, tmp_path):
        doc = self._doc()
        del doc["events"][1]["name"]
        self._assert_rejected(tmp_path, doc, "name")

    def test_metric_without_name(self, tmp_path):
        doc = self._doc()
        del doc["metrics"][0]["name"]
        self._assert_rejected(tmp_path, doc, "name")

    def test_data_block_without_exclusive(self, tmp_path):
        doc = self._doc()
        del doc["data"]["TIME"]["exclusive"]
        self._assert_rejected(tmp_path, doc, "exclusive")

    def test_metric_listed_twice(self, tmp_path):
        # both entries once read the one "TIME" data block, and loaded as
        # a single metric
        doc = self._doc()
        doc["metrics"].append(dict(doc["metrics"][0]))
        self._assert_rejected(tmp_path, doc, "duplicate metric 'TIME'")

    @pytest.mark.parametrize("axis, message", [
        ("events", "duplicate event 'main'"),
        ("threads", "duplicate thread 0.0.0"),
    ])
    def test_axis_entry_listed_twice(self, tmp_path, axis, message):
        # the data carries a row (event) or column (thread) for the repeat,
        # so the document is consistent in shape
        doc = self._doc()
        doc[axis].append(doc[axis][0])
        matrices = [block[kind] for block in doc["data"].values()
                    for kind in ("exclusive", "inclusive")]
        for matrix in matrices + [doc["calls"], doc["subroutines"]]:
            if axis == "events":
                matrix.append(list(matrix[0]))
            else:
                for row in matrix:
                    row.append(row[0])
        self._assert_rejected(tmp_path, doc, message)


def test_gprof_malformed_number_names_file_and_line(tmp_path):
    path = tmp_path / "gmon.txt"
    path.write_text(GPROF_TABLE.replace("7.85", "7..85"))
    with pytest.raises(ProfileError, match=rf"{path}:6: .*7\.\.85"):
        read_gprof_profile(path)


@pytest.mark.parametrize("row", [
    " 21.00      1.47     0.42     10x0     0.42     0.42  pc_jacobi",
    " 21.00      1.47     0.42     1000     0.42     0.4x  pc_jacobi",
    " 21.00      1.47     0.42     1000     0.42           pc_jacobi",
])
def test_gprof_malformed_call_counts_name_file_and_line(tmp_path, row):
    # each once loaded as a row without call counts named '10x0 ... pc_jacobi'
    path = tmp_path / "gmon.txt"
    lines = GPROF_TABLE.splitlines()
    lines[6] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileError, match=rf"{path}:7: malformed call counts"):
        read_gprof_profile(path)


def test_gprof_unparseable_row_after_valid_rows_names_file_and_line(tmp_path):
    # once ended the table there, dropping every function below it
    path = tmp_path / "gmon.txt"
    lines = GPROF_TABLE.splitlines()
    lines.insert(7, " 15.50  ?? main")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileError, match=rf"{path}:8: unparseable gprof row"):
        read_gprof_profile(path)


def test_gprof_table_ends_at_a_blank_line(tmp_path):
    path = tmp_path / "gmon.txt"
    path.write_text(GPROF_TABLE + "\n index % time    self  children    "
                    "called     name\n")
    assert read_gprof_profile(path).event_names() == [
        "matxvec", "pc_jacobi", "main", "exchange_var"]


def test_gprof_row_without_call_counts_may_name_a_dotted_function(tmp_path):
    # clang's OpenMP outlined functions, built without -pg
    path = tmp_path / "gmon.txt"
    path.write_text(GPROF_TABLE.replace(
        "main\n", "main\n  0.00      2.01     0.00                             "
        ".omp_outlined.\n"))
    trial = read_gprof_profile(path)
    assert trial.event_names()[3] == ".omp_outlined."
    # loaded like main, the other row without call counts
    assert trial.get_calls(".omp_outlined.", 0) == trial.get_calls("main", 0)


@pytest.mark.parametrize("reader", ["json", "csv", "tau", "gprof"])
def test_invalid_utf8_byte_names_file_and_line(tmp_path, reader):
    trial = small_trial()
    if reader == "tau":
        write_tau_profile(trial, tmp_path / "tau")
        path = tmp_path / "tau" / "MULTI__TIME" / "profile.0.0.1"
        read, line = (lambda _: read_tau_profile(tmp_path / "tau")), 3
    elif reader == "gprof":
        path, read, line = tmp_path / "gmon.txt", read_gprof_profile, 7
        path.write_text(GPROF_TABLE)
    else:
        path = tmp_path / f"t.{reader}"
        write, read = {"json": (write_json_profile, read_json_profile),
                       "csv": (write_csv_profile, read_csv_profile)}[reader]
        write(trial, path)
        line = 1 if reader == "json" else 3
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:5] + b"\xff" + lines[line - 1][5:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ProfileError,
                       match=rf"{path}:{line}: invalid UTF-8 byte 0xff"):
        read(path)


def test_tau_malformed_number_names_file_and_line(tmp_path):
    write_tau_profile(small_trial(), tmp_path / "prof")
    path = tmp_path / "prof" / "MULTI__TIME" / "profile.0.0.1"
    lines = path.read_text().splitlines()
    lines[3] = lines[3].replace(" 3 ", " 1.2.3 ", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileError, match=rf"{path}:4: .*1\.2\.3"):
        read_tau_profile(tmp_path / "prof")


# -- fuzz: 1-5 character edits of a written trial ---------------------------

#: "\udcff" is written as the byte 0xff (see :func:`write`)
ALPHABET = st.sampled_from(list('0123456789.eE+-",:[]{} \nabcxyz_=>\\#\udcff'))


@st.composite
def edits(draw):
    """1-5 (position fraction, kind, character) edits."""
    return draw(st.lists(
        st.tuples(st.floats(0, 1), st.sampled_from(["insert", "replace", "delete"]),
                  ALPHABET),
        min_size=1, max_size=5))


def mutate(text: str, ops) -> str:
    for where, kind, char in ops:
        i = min(int(where * len(text)), max(len(text) - 1, 0))
        if kind == "insert":
            text = text[:i] + char + text[i:]
        elif kind == "replace":
            text = text[:i] + char + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
    return text


def write(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8, with each "\\udcff" as the byte 0xff."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def loads_or_names_file(read, path, shown):
    """``read(path)`` gives a trial or a ProfileError that names ``shown``."""
    try:
        read(path)
    except ProfileError as exc:
        assert str(shown) in str(exc), str(exc)


FUZZ = settings(max_examples=120, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    root = tmp_path_factory.mktemp("seed")
    trial = small_trial()
    write_json_profile(trial, root / "t.json")
    write_csv_profile(trial, root / "t.csv")
    write_tau_profile(trial, root / "tau")
    (root / "gmon.txt").write_text(GPROF_TABLE)
    return root


@FUZZ
@given(ops=edits())
def test_json_reader_fuzz(written, ops):
    text = mutate((written / "t.json").read_text(), ops)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        write(path, text)
        loads_or_names_file(read_json_profile, path, path)


@FUZZ
@given(ops=edits())
def test_csv_reader_fuzz(written, ops):
    text = mutate((written / "t.csv").read_text(), ops)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write(path, text)
        loads_or_names_file(read_csv_profile, path, path)


@FUZZ
@given(ops=edits(), which=st.integers(0, 3))
def test_tau_reader_fuzz(written, ops, which):
    files = sorted((written / "tau").rglob("profile.*"))
    target = files[which]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "tau"
        for path in files:
            copy = root / path.relative_to(written / "tau")
            copy.parent.mkdir(parents=True, exist_ok=True)
            text = path.read_text()
            write(copy, mutate(text, ops) if path == target else text)
        loads_or_names_file(read_tau_profile, root, root)


@FUZZ
@given(ops=edits())
def test_gprof_reader_fuzz(written, ops):
    text = mutate((written / "gmon.txt").read_text(), ops)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gmon.txt"
        write(path, text)
        loads_or_names_file(read_gprof_profile, path, path)
