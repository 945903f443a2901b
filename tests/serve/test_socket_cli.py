"""Socket transport and the ``repro-perf serve`` CLI verbs.

The server under test is an in-process :class:`ServeServer` over a
thread-mode service; clients talk to it exactly as a second terminal
would — through the unix (or TCP) socket, or through ``cli.main``.
"""

import json
import os
import socket
import subprocess
import sys

import pytest

from .conftest import DIAG, make_trial
from repro import cli
from repro.core.result import AnalysisError
from repro.serve import AnalysisService, ServeServer, SocketClient
from repro.serve.protocol import MAX_LINE, parse_endpoint


@pytest.fixture
def served(tmp_path):
    """A started service behind a unix socket; yields (service, server)."""
    svc = AnalysisService(workers=2, default_timeout=10.0).start()
    svc.db.save_trial("App", "Exp", make_trial("t1"))
    svc.db.save_trial("App", "Exp", make_trial("t2", skew=6.0))
    server = ServeServer(svc, f"unix:{tmp_path / 'serve.sock'}").start()
    yield svc, server
    server.stop()
    svc.stop()


class TestEndpoints:
    def test_parse_unix_and_tcp(self):
        assert parse_endpoint("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_endpoint("tcp:127.0.0.1:7777") == \
            ("tcp", ("127.0.0.1", 7777))

    @pytest.mark.parametrize("bad", ["unix:", "tcp:nope", "tcp:host:port",
                                     "http://x", "serve.sock"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AnalysisError):
            parse_endpoint(bad)

    def test_tcp_port_zero_reports_chosen_port(self):
        svc = AnalysisService(workers=1).start()
        server = ServeServer(svc, "tcp:127.0.0.1:0").start()
        try:
            family, (host, port) = parse_endpoint(server.endpoint)
            assert family == "tcp" and port > 0
            with SocketClient(server.endpoint) as client:
                assert client.ping()["pong"]
        finally:
            server.stop()
            svc.stop()


class TestSocketClient:
    def test_ping(self, served):
        _, server = served
        with SocketClient(server.endpoint) as client:
            reply = client.ping()
        assert reply["pong"] and reply["endpoint"] == server.endpoint

    def test_run_diagnose_and_cache_hit_across_connections(self, served):
        _, server = served
        with SocketClient(server.endpoint) as client:
            cold = client.run("diagnose", DIAG)
        assert cold["status"] == "done" and not cold["cache_hit"]
        # A different connection still sees the shared cache.
        with SocketClient(server.endpoint) as client:
            warm = client.run("diagnose", DIAG)
        assert warm["status"] == "done" and warm["cache_hit"]
        assert warm["result"] == cold["result"]

    def test_status_by_id_and_listing(self, served):
        _, server = served
        with SocketClient(server.endpoint) as client:
            job = client.run("sleep", {"seconds": 0.0})
            assert client.status(job["id"])["status"] == "done"
            listing = client.status()
            assert [j["id"] for j in listing["jobs"]] == [job["id"]]
            assert listing["pending"] == 0

    def test_stats_and_diagnose_ops(self, served):
        _, server = served
        with SocketClient(server.endpoint) as client:
            client.run("sleep", {"seconds": 0.0})
            stats = client.stats()
            assert stats["jobs"]["submitted"] == 1
            report = client.diagnose()
            assert "Service diagnosis" in report["report"]

    def test_errors_cross_the_wire_as_analysis_errors(self, served):
        _, server = served
        with SocketClient(server.endpoint) as client:
            with pytest.raises(AnalysisError, match="unknown job kind"):
                client.submit("nope")
            with pytest.raises(AnalysisError, match="no job"):
                client.wait(99999)

    def test_raw_protocol_is_json_lines(self, served):
        """The wire format works without our client — plain socket I/O."""
        _, server = served
        _, path = parse_endpoint(server.endpoint)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(path)
        try:
            sock.sendall(b'{"op": "ping"}\n{"op": "stats"}\n')
            reader = sock.makefile("rb")
            first = json.loads(reader.readline())
            second = json.loads(reader.readline())
        finally:
            sock.close()
        assert first["ok"] and first["pong"]
        assert second["ok"] and "queue" in second["stats"]

    def test_malformed_request_reports_bad_request(self, served):
        _, server = served
        _, path = parse_endpoint(server.endpoint)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(path)
        try:
            sock.sendall(b'this is not json\n{"op": "frobnicate"}\n')
            reader = sock.makefile("rb")
            bad = json.loads(reader.readline())
            unknown = json.loads(reader.readline())
        finally:
            sock.close()
        assert not bad["ok"] and "bad request" in bad["error"]
        assert not unknown["ok"] and "unknown op" in unknown["error"]
        assert bad["kind"] == "ValueError"
        assert unknown["kind"] == "AnalysisError"  # a handler's own error


def raw_connection(server):
    """A plain unix socket to ``server`` and a line reader over it."""
    _, path = parse_endpoint(server.endpoint)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(path)
    return sock, sock.makefile("rb")


#: Frames with a missing or wrongly typed field, and the field each names.
BAD_FIELDS = [
    (b'{"op": "submit"}', "kind"),
    (b'{"op": "wait"}', "id"),
    (b'{"op": "explain_job"}', "id"),
    (b'{"op": "submit", "kind": "sleep", "params": [1]}', "params"),
    (b'{"op": "wait", "id": 1, "timeout": "soon"}', "timeout"),
    (b'{"op": "status", "id": [7]}', "id"),
    (b'{"op": "submit", "kind": "sleep", "priority": "high"}', "priority"),
    (b'{"op": "submit_many", "jobs": {}}', "jobs"),
]


class TestProtocolFrames:
    """Bad frames from one connection while another has a job in flight:
    each gets a named error reply or a clean close, and the service keeps
    serving."""

    def test_bad_frames_do_not_disturb_a_job_in_flight(self, served):
        _, server = served
        with SocketClient(server.endpoint) as good:
            job = good.submit("sleep", {"seconds": 0.3})
            sock, reader = raw_connection(server)
            try:
                replies = []
                for frame in [b"\xff\xfe garbage \x00", b"[1, 2]",
                              b'"just a string"'] + [f for f, _ in BAD_FIELDS]:
                    sock.sendall(frame + b"\n")
                    replies.append(json.loads(reader.readline()))
                # The connection survives its bad frames.
                sock.sendall(b'{"op": "ping"}\n')
                assert json.loads(reader.readline())["pong"]
            finally:
                reader.close()
                sock.close()
            for reply in replies:
                assert not reply["ok"]
                assert reply["kind"] == "ValueError"
                assert reply["error"].startswith("bad request")
            for reply, (_, field) in zip(replies[3:], BAD_FIELDS):
                assert repr(field) in reply["error"], reply
            assert job["status"] in ("queued", "running")
            assert good.wait(job["id"], timeout=10.0)["status"] == "done"
        with SocketClient(server.endpoint) as fresh:
            assert fresh.ping()["pong"]

    def test_oversized_line_is_refused_and_closed(self, served):
        _, server = served
        with SocketClient(server.endpoint) as good:
            job = good.submit("sleep", {"seconds": 0.2})
            sock, reader = raw_connection(server)
            try:
                sock.sendall(b"x" * (MAX_LINE + 1))
                reply = json.loads(reader.readline())
                assert reader.readline() == b""  # then the server hangs up
            finally:
                reader.close()
                sock.close()
            assert not reply["ok"] and str(MAX_LINE) in reply["error"]
            assert good.wait(job["id"], timeout=10.0)["status"] == "done"
        with SocketClient(server.endpoint) as fresh:
            assert fresh.ping()["pong"]

    def test_truncated_frame_is_a_clean_close(self, served):
        _, server = served
        with SocketClient(server.endpoint) as good:
            job = good.submit("sleep", {"seconds": 0.2})
            sock, reader = raw_connection(server)
            try:
                sock.sendall(b'{"op": "ping"')  # no newline
                sock.shutdown(socket.SHUT_WR)
                assert reader.readline() == b""  # no reply, just EOF
            finally:
                reader.close()
                sock.close()
            assert good.wait(job["id"], timeout=10.0)["status"] == "done"
        with SocketClient(server.endpoint) as fresh:
            assert fresh.ping()["pong"]


class TestServeCli:
    def _ep(self, served):
        return served[1].endpoint

    def test_submit_waits_and_prints_job_json(self, served, capsys):
        rc = cli.main([
            "serve", "submit", "--endpoint", self._ep(served), "diagnose",
            "--param", "app=App", "--param", "exp=Exp",
            "--param", "trial=t2", "--param", "script=load-balance",
            "--compact",
        ])
        out = capsys.readouterr().out
        job = json.loads(out)
        assert rc == 0
        assert job["status"] == "done"
        assert job["result"]["recommendations"]

    def test_submit_no_wait_returns_queued_record(self, served, capsys):
        rc = cli.main([
            "serve", "submit", "--endpoint", self._ep(served), "sleep",
            "--param", "seconds=0.2", "--no-wait", "--compact",
        ])
        job = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert job["status"] in ("queued", "running")
        served[0].wait(job["id"], timeout=10.0)

    def test_failed_job_exits_nonzero(self, served, capsys):
        rc = cli.main([
            "serve", "submit", "--endpoint", self._ep(served), "diagnose",
            "--param", "app=App", "--param", "exp=Exp",
            "--param", "trial=missing", "--compact",
        ])
        job = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert job["status"] == "failed"

    def test_status_and_stats_verbs(self, served, capsys):
        cli.main(["serve", "submit", "--endpoint", self._ep(served),
                  "sleep", "--param", "seconds=0", "--compact"])
        capsys.readouterr()
        rc = cli.main(["serve", "status", "--endpoint", self._ep(served),
                       "--compact"])
        listing = json.loads(capsys.readouterr().out)
        assert rc == 0 and len(listing["jobs"]) == 1
        rc = cli.main(["serve", "stats", "--endpoint", self._ep(served),
                       "--compact"])
        stats = json.loads(capsys.readouterr().out)
        assert rc == 0 and stats["jobs"]["submitted"] == 1

    def test_diagnose_verb_prints_report(self, served, capsys):
        cli.main(["serve", "submit", "--endpoint", self._ep(served),
                  "sleep", "--param", "seconds=0", "--compact"])
        capsys.readouterr()
        rc = cli.main(["serve", "diagnose", "--endpoint", self._ep(served)])
        assert rc == 0
        assert "Service diagnosis" in capsys.readouterr().out

    def test_stop_verb_flips_shutdown(self, served, capsys):
        rc = cli.main(["serve", "stop", "--endpoint", self._ep(served)])
        assert rc == 0
        assert "stopping" in capsys.readouterr().out
        assert not served[1].running

    def test_unreachable_endpoint_is_a_clean_error(self, tmp_path, capsys):
        rc = cli.main(["serve", "stats",
                       "--endpoint", f"unix:{tmp_path / 'absent.sock'}"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_param_syntax_is_a_clean_error(self, served, capsys):
        rc = cli.main(["serve", "submit", "--endpoint", self._ep(served),
                       "sleep", "--param", "malformed"])
        assert rc == 2
        assert "key=value" in capsys.readouterr().err


class TestDbEnvDefault:
    """Satellite: ``--db`` defaults from ``$REPRO_PERFDMF_DB``."""

    def test_env_var_fills_db_default(self, monkeypatch):
        monkeypatch.setenv(cli.DB_ENV_VAR, "/tmp/env-repo.db")
        args = cli.build_parser().parse_args(
            ["diagnose", "--app", "A", "--exp", "E", "--trial", "t"])
        assert args.db == "/tmp/env-repo.db"

    def test_explicit_db_overrides_env(self, monkeypatch):
        monkeypatch.setenv(cli.DB_ENV_VAR, "/tmp/env-repo.db")
        args = cli.build_parser().parse_args(
            ["diagnose", "--db", "/tmp/other.db",
             "--app", "A", "--exp", "E", "--trial", "t"])
        assert args.db == "/tmp/other.db"

    def test_without_env_db_is_still_required(self, monkeypatch, capsys):
        monkeypatch.delenv(cli.DB_ENV_VAR, raising=False)
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["diagnose", "--app", "A", "--exp", "E", "--trial", "t"])

    def test_serve_default_endpoint_derives_from_db(self):
        assert cli._default_endpoint("perf.db") == "unix:perf.db.sock"
        assert cli._default_endpoint(":memory:") == "unix:repro-serve.sock"


class TestModuleEntryPoint:
    """Satellite: ``python -m repro`` reaches the CLI."""

    def test_python_dash_m_repro(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert "serve" in proc.stdout
