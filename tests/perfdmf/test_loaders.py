"""Tests for the TAU/JSON/CSV profile loaders."""

import numpy as np
import pytest

from repro.perfdmf import (
    ProfileError,
    TrialBuilder,
    read_csv_profile,
    read_json_profile,
    read_tau_profile,
    trial_from_dict,
    trial_to_dict,
    write_csv_profile,
    write_json_profile,
    write_tau_profile,
)


def make_trial(n_metrics=2):
    exc = np.array([[10.0, 20.0], [5.0, 5.0], [1.5, 2.5]])
    inc = np.array([[100.0, 100.0], [5.0, 5.0], [1.5, 2.5]])
    b = (
        TrialBuilder("sample", {"case": "loader"})
        .with_events(["main", "compute_loop", 'main => compute_loop'])
        .with_threads(2)
        .with_metric("TIME", exc, inc, units="usec")
    )
    if n_metrics > 1:
        b.with_metric("L3_MISSES", exc * 100, inc * 100)
    return b.with_calls(np.full((3, 2), 3.0), np.full((3, 2), 1.0)).build()


def assert_trials_equal(a, b):
    assert a.event_names() == b.event_names()
    # the TAU loader discovers MULTI__ metric directories alphabetically,
    # so compare metric sets, not order
    assert sorted(a.metric_names()) == sorted(b.metric_names())
    assert [str(t) for t in a.threads] == [str(t) for t in b.threads]
    for m in a.metric_names():
        np.testing.assert_allclose(a.exclusive_array(m), b.exclusive_array(m))
        np.testing.assert_allclose(a.inclusive_array(m), b.inclusive_array(m))
    np.testing.assert_allclose(a.calls_array(), b.calls_array())


class TestTauFormat:
    def test_multi_metric_roundtrip(self, tmp_path):
        trial = make_trial()
        files = write_tau_profile(trial, tmp_path / "prof")
        assert len(files) == 4  # 2 metrics x 2 threads
        assert (tmp_path / "prof" / "MULTI__TIME").is_dir()
        loaded = read_tau_profile(tmp_path / "prof", name="sample")
        assert_trials_equal(trial, loaded)

    def test_single_metric_flat_layout(self, tmp_path):
        trial = make_trial(n_metrics=1)
        write_tau_profile(trial, tmp_path / "prof")
        assert (tmp_path / "prof" / "profile.0.0.0").is_file()
        loaded = read_tau_profile(tmp_path / "prof")
        assert_trials_equal(trial, loaded)

    def test_groups_roundtrip(self, tmp_path):
        trial = make_trial(n_metrics=1)
        write_tau_profile(trial, tmp_path / "p")
        loaded = read_tau_profile(tmp_path / "p")
        assert {e.group for e in loaded.events} == {"TAU_DEFAULT"}

    def test_quoted_event_names(self, tmp_path):
        import numpy as np
        trial = (
            TrialBuilder("q")
            .with_events(['region "hot" loop'])
            .with_threads(1)
            .with_metric("TIME", np.array([[1.0]]))
            .build()
        )
        write_tau_profile(trial, tmp_path / "p")
        loaded = read_tau_profile(tmp_path / "p")
        assert loaded.event_names() == ['region "hot" loop']

    def test_missing_directory(self):
        with pytest.raises(ProfileError, match="no such profile directory"):
            read_tau_profile("/nonexistent/path")

    def test_declared_count_mismatch_detected(self, tmp_path):
        d = tmp_path / "p"
        d.mkdir()
        (d / "profile.0.0.0").write_text(
            '5 templated_functions_MULTI_TIME\n'
            '# Name Calls Subrs Excl Incl ProfileCalls\n'
            '"main" 1 0 1 1 0\n'
            "0 aggregates\n"
        )
        with pytest.raises(ProfileError, match="declared 5"):
            read_tau_profile(d)

    def test_bad_header_detected(self, tmp_path):
        d = tmp_path / "p"
        d.mkdir()
        (d / "profile.0.0.0").write_text("garbage\n")
        with pytest.raises(ProfileError, match="bad header"):
            read_tau_profile(d)


class TestJsonFormat:
    def test_roundtrip(self, tmp_path):
        trial = make_trial()
        write_json_profile(trial, tmp_path / "t.json")
        loaded = read_json_profile(tmp_path / "t.json")
        assert_trials_equal(trial, loaded)
        assert loaded.metadata == {"case": "loader"}

    def test_dict_roundtrip(self):
        trial = make_trial()
        assert_trials_equal(trial, trial_from_dict(trial_to_dict(trial)))

    def test_future_version_rejected(self):
        doc = trial_to_dict(make_trial())
        doc["format_version"] = 99
        with pytest.raises(ProfileError, match="version"):
            trial_from_dict(doc)

    def test_missing_key_rejected(self):
        doc = trial_to_dict(make_trial())
        del doc["threads"]
        with pytest.raises(ProfileError, match="threads"):
            trial_from_dict(doc)

    def test_shape_mismatch_rejected(self):
        doc = trial_to_dict(make_trial())
        doc["data"]["TIME"]["exclusive"] = [[1.0]]
        with pytest.raises(ProfileError, match="shape"):
            trial_from_dict(doc)

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ProfileError, match="invalid JSON"):
            read_json_profile(p)


class TestCsvFormat:
    def test_roundtrip(self, tmp_path):
        trial = make_trial()
        write_csv_profile(trial, tmp_path / "t.csv")
        loaded = read_csv_profile(tmp_path / "t.csv", name="sample")
        assert_trials_equal(trial, loaded)

    def test_missing_columns_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("event,metric\nmain,TIME\n")
        with pytest.raises(ProfileError, match="missing CSV columns"):
            read_csv_profile(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text(",".join(
            ["event", "group", "metric", "node", "context", "thread",
             "exclusive", "inclusive", "calls", "subroutines"]) + "\n")
        with pytest.raises(ProfileError, match="no data rows"):
            read_csv_profile(p)

    def test_bad_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "event,group,metric,node,context,thread,exclusive,inclusive,calls,subroutines\n"
            "main,G,TIME,0,0,zero,1,1,1,0\n"
        )
        with pytest.raises(ProfileError, match=":2:"):
            read_csv_profile(p)

    def test_wide_csv_loads_equal_to_json(self, tmp_path):
        """A 200-event x 512-thread trial, written as CSV and as JSON,
        loads to the same axes, metric descriptions and bit-equal arrays;
        the CSV rows come shuffled, with one cell repeated (last wins)."""
        rng = np.random.default_rng(3)
        exc = rng.random((200, 512)) * 100.0
        trial = (TrialBuilder("wide")
                 .with_events([f"e{i}" for i in range(200)], group="G")
                 .with_threads(512, node_of=lambda i: i // 8)
                 .with_metric("TIME", exc, exc * 2.0, units="usec")
                 .with_calls(rng.integers(1, 9, (200, 512)).astype(float),
                             np.ones((200, 512)))
                 .build())
        write_json_profile(trial, tmp_path / "t.json")
        write_csv_profile(trial, tmp_path / "t.csv")
        from_json = read_json_profile(tmp_path / "t.json")
        from_csv = read_csv_profile(tmp_path / "t.csv", name="wide")
        for got in (from_json, from_csv):
            assert [(e.name, e.group) for e in got.events] == [
                (e.name, e.group) for e in trial.events]
            assert got.threads == trial.threads
            assert got.metrics == trial.metrics
            for get in ("calls_array", "subroutines_array"):
                assert np.array_equal(getattr(got, get)(),
                                      getattr(trial, get)())
            for get in ("exclusive_array", "inclusive_array"):
                assert np.array_equal(getattr(got, get)("TIME"),
                                      getattr(trial, get)("TIME"))

        header, *rows = (tmp_path / "t.csv").read_text().splitlines()
        rows = [rows[0]] + [rows[i] for i in
                            rng.permutation(np.arange(1, len(rows)))]
        repeated = rows[0].split(",")
        repeated[6] = "0.5"  # a later row for cell (e0, 0.0.0)
        (tmp_path / "s.csv").write_text(
            "\n".join([header] + rows + [",".join(repeated)]) + "\n")
        shuffled = read_csv_profile(tmp_path / "s.csv", name="wide")
        assert shuffled.event_names()[0] == "e0"
        assert shuffled.get_exclusive("e0", "TIME", 0) == 0.5
        order = [shuffled.event_index(e) for e in trial.event_names()]
        threads = [shuffled.threads.index(t) for t in trial.threads]
        assert np.array_equal(
            shuffled.exclusive_array("TIME")[np.ix_(order, threads)][1:],
            exc[1:])

    def test_short_row_reports_line(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text(
            "event,group,metric,node,context,thread,exclusive,inclusive,calls,subroutines\n"
            "main,TAU_DEFAULT,TIME,0,0\n"
        )
        with pytest.raises(ProfileError,
                           match=r"short.csv:2: row has 5 of 10 columns"):
            read_csv_profile(p)


class TestCrossFormat:
    def test_tau_to_json_to_csv_identity(self, tmp_path):
        trial = make_trial()
        write_tau_profile(trial, tmp_path / "tau")
        t1 = read_tau_profile(tmp_path / "tau", name="sample")
        write_json_profile(t1, tmp_path / "t.json")
        t2 = read_json_profile(tmp_path / "t.json")
        write_csv_profile(t2, tmp_path / "t.csv")
        t3 = read_csv_profile(tmp_path / "t.csv", name="sample")
        assert_trials_equal(trial, t3)


GPROF_SAMPLE = """\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 52.10      1.05      1.05      200     5.25     7.85  matxvec
 21.00      1.47      0.42     1000     0.42     0.42  pc_jacobi
 15.50      1.78      0.31                             main
 11.40      2.01      0.23       50     4.60     9.20  exchange_var

 granularity: each sample hit covers 2 byte(s)
"""


class TestGprofFormat:
    def test_parse_flat_profile(self, tmp_path):
        from repro.perfdmf import read_gprof_profile

        p = tmp_path / "gmon.txt"
        p.write_text(GPROF_SAMPLE)
        trial = read_gprof_profile(p, name="gp")
        assert trial.event_names() == [
            "matxvec", "pc_jacobi", "main", "exchange_var"]
        assert trial.get_exclusive("matxvec", "TIME", 0) == pytest.approx(1.05e6)
        # inclusive = total ms/call x calls
        assert trial.get_inclusive("matxvec", "TIME", 0) == pytest.approx(
            7.85 * 200 * 1e3)
        assert trial.get_calls("pc_jacobi", 0) == 1000
        # main has no call counts: inclusive = cumulative total
        assert trial.get_inclusive("main", "TIME", 0) == pytest.approx(2.01e6)
        assert trial.main_event() == "main"
        assert {e.group for e in trial.events} == {"GPROF"}

    def test_analysis_over_gprof_trial(self):
        from repro.core.script import TopXEvents, TrialResult
        from repro.perfdmf import parse_gprof_text

        trial = parse_gprof_text(GPROF_SAMPLE.splitlines())
        top = TopXEvents(TrialResult(trial), "TIME", 2).ranked_events()
        assert top == ["matxvec", "pc_jacobi"]

    def test_missing_table_rejected(self):
        from repro.perfdmf import parse_gprof_text

        with pytest.raises(ProfileError, match="no flat-profile table"):
            parse_gprof_text(["nothing", "to", "see"])

    def test_missing_file(self):
        from repro.perfdmf import read_gprof_profile

        with pytest.raises(ProfileError, match="no such gprof file"):
            read_gprof_profile("/does/not/exist")

    def test_garbage_row_rejected(self):
        from repro.perfdmf import parse_gprof_text

        bad = GPROF_SAMPLE.splitlines()
        # corrupt the table before any valid row has been parsed
        bad.insert(5, "!! corrupted row !!")
        with pytest.raises(ProfileError, match="unparseable"):
            parse_gprof_text(bad)
