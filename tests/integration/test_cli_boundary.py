"""CLI: the one error boundary, the traced command's db, closed repositories."""

import pytest

from repro import cli, observe
from repro.observe.bridge import SELF_APPLICATION
from repro.perfdmf import PerfDMF

from .test_cli_surface import cli_surface


@pytest.fixture(autouse=True)
def _observe_cleanup():
    """The trace verb toggles global telemetry; never leak it."""
    yield
    observe.disable()


@pytest.fixture
def env_db(tmp_path, monkeypatch):
    path = str(tmp_path / "perf.db")
    monkeypatch.setenv(cli.DB_ENV_VAR, path)
    return path


class TestErrorBoundary:
    @pytest.mark.parametrize("argv", [
        # ProfileError: no such trial
        ["diagnose", "--app", "A", "--exp", "E", "--trial", "t"],
        ["lineage", "log", "--limit", "0"],
        # AnalysisError: malformed option values
        ["lineage", "record", "v1", "--factor", "scale"],
        ["lineage", "record", "v1", "--trial", "A/E"],
        ["regress", "baseline", "set"],
        ["serve", "submit", "sleep", "--params", "[1]"],
        # SpecError (an AnalysisError) and OSError
        ["exp", "plan", "{tmp}/bad.toml"],
        ["exp", "plan", "{tmp}/missing.toml"],
        ["serve", "stats", "--endpoint", "unix:{tmp}/absent.sock"],
    ])
    def test_error_prints_one_line_and_exits_two(self, argv, env_db,
                                                 tmp_path, capsys):
        (tmp_path / "bad.toml").write_text('name = "x"\n')
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_choices_come_from_the_tables():
    from repro.apps.genidlest import CASES
    from repro.knowledge import DIAGNOSE_SCRIPTS

    choices = {(verb, dest): row_choices
               for verb, dest, _, _, row_choices, _, _ in cli_surface()}
    for verb in ("run-genidlest", "trace-app", "tune"):
        assert choices[verb, "case"] == list(CASES)
    for verb in ("diagnose", "explain"):
        assert choices[verb, "script"] == list(DIAGNOSE_SCRIPTS)


class TestTraceInnerDb:
    def test_self_profile_lands_in_the_env_db(self, env_db, tmp_path,
                                              capsys):
        rc = cli.main(["trace", "--trace-out", str(tmp_path / "trace"),
                       "run-msa", "--sequences", "40", "--threads", "4"])
        assert rc == 0
        with PerfDMF(env_db) as repo:
            assert repo.trials("MSAP", "static") == ["1_4"]
            assert repo.trials(SELF_APPLICATION, "run-msa") == ["run_0001"]
        assert "self-profile stored" in capsys.readouterr().out


class TestRepositoriesClosed:
    @pytest.fixture
    def unclosed(self, monkeypatch):
        """Every PerfDMF opened from now on; returns those not closed."""
        opened = []
        init, close = PerfDMF.__init__, PerfDMF.close

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            opened.append(self)

        def spy_close(self):
            self.spied_closed = True
            close(self)

        monkeypatch.setattr(PerfDMF, "__init__", spy_init)
        monkeypatch.setattr(PerfDMF, "close", spy_close)
        return lambda: [db for db in opened
                        if not getattr(db, "spied_closed", False)]

    @pytest.mark.parametrize("argv, rc", [
        (["lineage", "log"], 0),
        (["lineage", "scan"], 0),
        (["lineage", "record", "v2", "--parent", "v1"], 0),
        # bisect raising: no samples and no client to synthesize them
        (["bisect", "v0", "v1"], 2),
        # bisect raising: no path between the versions
        (["bisect", "v0", "nowhere"], 2),
    ])
    def test_lineage_verbs_close_their_repository(self, argv, rc, env_db,
                                                  unclosed):
        assert cli.main(["lineage", "record", "v0",
                         "--factor", "scale=1.0"]) == 0
        assert cli.main(["lineage", "record", "v1", "--parent", "v0",
                         "--factor", "scale=2.0"]) == 0
        assert cli.main(argv) == rc
        assert unclosed() == []
