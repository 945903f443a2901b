"""Command-line interface: ``repro-perf``.

Subcommands::

    repro-perf reproduce {fig4a,fig4b,fig5a,fig5b,table1}
        Regenerate one of the paper's figures/tables and print its series.

    repro-perf run-msa [--sequences N] [--threads N] [--schedule S] [--db F]
        Simulate one MSAP configuration; optionally store the profile.

    repro-perf run-genidlest [--case {45rib,90rib}] [--version {openmp,mpi}]
                             [--procs N] [--optimized] [--db F]
        Simulate one GenIDLEST configuration; optionally store the profile.

    repro-perf diagnose --db F --app A --exp E --trial T [--rules FILE.prl]
        Run the knowledge-based diagnosis over a stored trial.

    repro-perf tune {msa,genidlest}
        Run the closed diagnose→plan→apply→verify loop and report.

    repro-perf regress {baseline,check,report} ...
        The performance-regression sentinel: tag baselines, gate new
        trials against them (non-zero exit on regression), and render
        full statistical reports with chained diagnoses.

    repro-perf trace <command ...> [--trace-out PREFIX]
        Run any repro-perf command with self-telemetry on; export the
        analyzer's own trace as JSONL + Chrome trace_event JSON and, when
        the inner command used --db, store the self-profile as a PerfDMF
        trial under repro.observe/<command> (the dogfood loop).

    repro-perf trace report --trace F.jsonl
    repro-perf trace export --trace F.jsonl --out F.json
        Digest or convert a previously exported trace.

    repro-perf trace-app {msa,genidlest} [--out F.json] [--db F] ...
        Run an *application* simulation with event tracing on: record the
        per-CPU event timeline, cut interval profile snapshots at phase
        boundaries (stored as PerfDMF sub-trials with --db), diagnose
        wait states and phase-imbalance trajectories, and optionally
        export a Chrome trace_event timeline with one lane per
        rank/thread.

    repro-perf explain --db F --app A --exp E --trial T
        Re-run the diagnosis and render the rule-firing audit trail:
        every firing, plus the why() provenance chain of each
        recommendation back to the input facts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Every ``--db`` option falls back to this environment variable, so a
#: shell (or CI job) can set the repository once instead of repeating it.
DB_ENV_VAR = "REPRO_PERFDMF_DB"


def _add_db_arg(parser: argparse.ArgumentParser, *, required: bool = False,
                help: str | None = None) -> None:
    """``--db`` with an ``$REPRO_PERFDMF_DB`` default."""
    env = os.environ.get(DB_ENV_VAR)
    parser.add_argument(
        "--db", default=env, required=required and not env,
        help=(help or "PerfDMF sqlite file")
        + f" (default: ${DB_ENV_VAR}" + (f" = {env}" if env else "") + ")",
    )


def _cmd_reproduce(args: argparse.Namespace) -> int:
    target = args.target
    if target == "fig4a":
        from repro.apps.msa import run_msa_trial
        from repro.machine import counters as C

        r = run_msa_trial(n_sequences=args.sequences, n_threads=16,
                          schedule="static", seed=0)
        t = r.trial
        inner = t.exclusive_array(C.TIME)[t.event_index("sw_align_inner_loop")] / 1e6
        outer = t.exclusive_array(C.TIME)[t.event_index("pairwise_outer_loop")] / 1e6
        print("Fig. 4(a): per-thread loop seconds (static, 16 threads)")
        print(f"{'thread':>8}{'inner':>12}{'outer/wait':>12}")
        for i in range(16):
            print(f"{i:>8}{inner[i]:>12.3f}{outer[i]:>12.3f}")
        print(f"imbalance ratio: {r.loop.imbalance_ratio:.3f}")
        return 0
    if target == "fig4b":
        from repro.apps.msa import relative_efficiency, run_msa_scaling

        schedules = ["static", "dynamic,16", "dynamic,4", "dynamic,1"]
        sweeps = run_msa_scaling(n_sequences=args.sequences,
                                 schedules=schedules,
                                 thread_counts=[1, 2, 4, 8, 16])
        eff = {s: dict(relative_efficiency(r)) for s, r in sweeps.items()}
        print("Fig. 4(b): MSAP relative efficiency")
        print(f"{'threads':>8}" + "".join(s.rjust(12) for s in schedules))
        for p in (1, 2, 4, 8, 16):
            print(f"{p:>8}" + "".join(f"{eff[s][p]:>12.2%}" for s in schedules))
        from repro.core.charts import line_chart

        print()
        print(line_chart(
            {s: sorted(eff[s].items()) for s in schedules},
            title="relative efficiency vs threads",
            x_label="threads", y_label="efficiency",
        ))
        return 0
    if target in ("fig5a", "fig5b"):
        from repro.apps.genidlest import RIB90, run_genidlest_scaling
        from repro.core.script import ScalabilityOperation, TrialResult

        counts = [1, 2, 4, 8, 16]
        if target == "fig5a":
            runs = run_genidlest_scaling(case=RIB90, version="openmp",
                                         optimized=False, proc_counts=counts,
                                         iterations=3)
            op = ScalabilityOperation([TrialResult(r.trial) for r in runs])
            events = ["bicgstab", "diff_coeff", "matxvec", "pc",
                      "pc_jac_glb", "mpi_send_recv_ko"]
            series = {
                e: op.event_series(e, inclusive=(e == "mpi_send_recv_ko"))
                for e in events
            }
            print("Fig. 5(a): per-event speedup, unoptimized OpenMP 90rib")
            print(f"{'procs':>6}" + "".join(e[:11].rjust(12) for e in events))
            for i, p in enumerate(counts):
                print(f"{p:>6}" + "".join(
                    f"{series[e].speedup[i]:>12.2f}" for e in events))
            return 0
        variants = {
            "MPI": dict(version="mpi", optimized=True),
            "OpenMP opt": dict(version="openmp", optimized=True),
            "OpenMP unopt": dict(version="openmp", optimized=False),
        }
        print("Fig. 5(b): GenIDLEST 90rib whole-app speedup")
        print(f"{'procs':>6}" + "".join(k.rjust(14) for k in variants))
        all_runs = {
            k: run_genidlest_scaling(case=RIB90, proc_counts=counts,
                                     iterations=3, **kw)
            for k, kw in variants.items()
        }
        series = {}
        for k in variants:
            base = all_runs[k][0].wall_seconds
            series[k] = [
                (p, base / all_runs[k][i].wall_seconds)
                for i, p in enumerate(counts)
            ]
        for i, p in enumerate(counts):
            row = f"{p:>6}"
            for k in variants:
                row += f"{series[k][i][1]:>14.2f}"
            print(row)
        from repro.core.charts import line_chart

        print()
        print(line_chart(series, title="speedup vs processors",
                         x_label="procs", y_label="speedup"))
        return 0
    if target == "table1":
        from repro.apps.genidlest.compiled import genidlest_compiled_program
        from repro.knowledge import recommend_power_levels
        from repro.machine import altix_300
        from repro.openuh import OPT_LEVELS, compile_program
        from repro.power import measure_signature, relative_table

        machine = altix_300()
        program = genidlest_compiled_program()
        meas = [
            measure_signature(l, compile_program(program, l).signature(),
                              machine, n_processors=16)
            for l in OPT_LEVELS
        ]
        print(relative_table(meas).render(
            title="Table I: relative differences, 16 MPI ranks (O0 baseline)"
        ))
        harness = recommend_power_levels(meas)
        print()
        for line in harness.output:
            print(line)
        return 0
    print(f"unknown reproduction target {target!r}", file=sys.stderr)
    return 2


def _cmd_run_msa(args: argparse.Namespace) -> int:
    from repro.apps.msa import run_msa_trial

    result = run_msa_trial(
        n_sequences=args.sequences, n_threads=args.threads,
        schedule=args.schedule, seed=args.seed,
    )
    print(f"trial {result.trial.name}: wall {result.wall_seconds:.3f} s, "
          f"imbalance {result.loop.imbalance_ratio:.3f}")
    if args.db:
        from repro.perfdmf import PerfDMF

        with PerfDMF(args.db) as repo:
            repo.save_trial("MSAP", f"{args.schedule}", result.trial,
                            replace=True)
        print(f"stored as MSAP/{args.schedule}/{result.trial.name} in {args.db}")
    return 0


def _cmd_run_genidlest(args: argparse.Namespace) -> int:
    from repro.apps.genidlest import RIB45, RIB90, RunConfig, run_genidlest

    case = RIB45 if args.case == "45rib" else RIB90
    result = run_genidlest(RunConfig(
        case=case, version=args.version, optimized=args.optimized,
        n_procs=args.procs, iterations=args.iterations,
    ))
    print(f"trial {result.trial.name}: wall {result.wall_seconds:.3f} s")
    if args.db:
        from repro.perfdmf import PerfDMF

        with PerfDMF(args.db) as repo:
            repo.save_trial("GenIDLEST", case.name, result.trial, replace=True)
        print(f"stored as GenIDLEST/{case.name}/{result.trial.name} "
              f"in {args.db}")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.core.harness import RuleHarness
    from repro.knowledge import render_report
    from repro.knowledge.rulebase import diagnose_genidlest, diagnose_load_balance
    from repro.perfdmf import PerfDMF

    with PerfDMF(args.db) as repo:
        trial = repo.load_trial(args.app, args.exp, args.trial)
    harness = None
    if args.rules:
        harness = RuleHarness(args.rules)
    diagnose = (
        diagnose_load_balance if args.script == "load-balance"
        else diagnose_genidlest
    )
    harness = diagnose(trial, harness=harness)
    print(render_report(harness, title=f"Diagnosis of {args.app}/{args.trial}"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """The §III.B comparison workflow: ratio of two stored trials."""
    from repro.core.script import (
        BasicStatisticsOperation,
        TrialRatioOperation,
        TrialResult,
    )
    from repro.perfdmf import PerfDMF

    with PerfDMF(args.db) as repo:
        a = repo.load_trial(args.app, args.exp, args.trial_a)
        b = repo.load_trial(args.app, args.exp, args.trial_b)
    mean_a = BasicStatisticsOperation(TrialResult(a)).mean()
    mean_b = BasicStatisticsOperation(TrialResult(b)).mean()
    ratio = TrialRatioOperation(mean_a, mean_b).process_data()[0]
    metric = args.metric
    if not ratio.has_metric(metric):
        print(f"no shared metric {metric!r}; have {ratio.metrics}",
              file=sys.stderr)
        return 2
    print(f"{args.trial_a} / {args.trial_b} per-event {metric} ratio "
          "(>1 means the first trial is slower):")
    rows = sorted(
        ((float(ratio.event_row(e, metric, inclusive=True)[0]), e)
         for e in ratio.events),
        reverse=True,
    )
    for value, event in rows:
        print(f"  {value:10.2f}  {event}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.perfdmf import PerfDMF

    with PerfDMF(args.db) as repo:
        apps = repo.applications()
        if not apps:
            print("(repository is empty)")
            return 0
        for app in apps:
            print(app)
            for exp in repo.experiments(app):
                print(f"  {exp}")
                for trial in repo.trials(app, exp):
                    meta = repo.trial_metadata(app, exp, trial)
                    extras = ", ".join(
                        f"{k}={meta[k]}"
                        for k in ("procs", "threads", "schedule", "case")
                        if k in meta
                    )
                    print(f"    {trial}" + (f"  ({extras})" if extras else ""))
    return 0


def _regress_errors(handler):
    """CI gates must keep exit 1 meaning *regressed*: configuration and
    repository errors print cleanly and exit 2 instead of tracebacking."""

    def wrapped(args: argparse.Namespace) -> int:
        from repro.core.result import AnalysisError
        from repro.perfdmf import ProfileError

        try:
            return handler(args)
        except (ProfileError, AnalysisError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return wrapped


def _regress_policy(args: argparse.Namespace):
    from repro.regress import ThresholdPolicy

    kw = {}
    if getattr(args, "metric", None):
        kw["metrics"] = (args.metric,)
    if getattr(args, "threshold", None) is not None:
        kw["min_relative_change"] = args.threshold
    if getattr(args, "alpha", None) is not None:
        kw["alpha"] = args.alpha
    return ThresholdPolicy(**kw)


@_regress_errors
def _cmd_regress_baseline(args: argparse.Namespace) -> int:
    from repro.perfdmf import PerfDMF
    from repro.regress import BaselineRegistry

    with PerfDMF(args.db) as db:
        registry = BaselineRegistry(db)
        if args.action == "set":
            if not (args.app and args.exp and args.trial):
                print("baseline set requires --app, --exp and --trial",
                      file=sys.stderr)
                return 2
            registry.set_baseline(args.app, args.exp, args.trial,
                                  reason=args.reason or "set via CLI")
            print(f"baseline for {args.app}/{args.exp} -> {args.trial}")
            return 0
        # list
        if args.app and args.exp:
            records = registry.history(args.app, args.exp)
            if not records:
                print("(no baseline history)")
                return 0
            for rec in records:
                mark = "*" if rec.active else " "
                print(f" {mark} {rec.application}/{rec.experiment}: "
                      f"{rec.trial}" + (f"  ({rec.reason})" if rec.reason else ""))
            return 0
        records = registry.list_baselines()
        if not records:
            print("(no baselines set)")
            return 0
        for rec in records:
            print(f"{rec.application}/{rec.experiment}: {rec.trial}"
                  + (f"  ({rec.reason})" if rec.reason else ""))
    return 0


@_regress_errors
def _cmd_regress_check(args: argparse.Namespace) -> int:
    from repro.perfdmf import PerfDMF
    from repro.regress import check, render_regression_report

    with PerfDMF(args.db) as db:
        outcome = check(
            db, args.app, args.exp, args.trial,
            policy=_regress_policy(args),
            diagnose=not args.no_diagnose,
            auto_promote=args.promote,
        )
        print(render_regression_report(outcome.report, outcome.harness))
        if outcome.promoted:
            print(f"\nbaseline auto-promoted to {outcome.report.candidate_trial}")
    return outcome.exit_code


@_regress_errors
def _cmd_regress_report(args: argparse.Namespace) -> int:
    from repro.perfdmf import PerfDMF
    from repro.regress import check, render_regression_report

    with PerfDMF(args.db) as db:
        outcome = check(
            db, args.app, args.exp, args.trial,
            policy=_regress_policy(args), diagnose=True,
        )
        print(render_regression_report(outcome.report, outcome.harness))
        for fact in (outcome.harness.facts("Recommendation")
                     if outcome.harness else []):
            print()
            print(outcome.harness.why(fact))
    return 0


def _trace_inner_db(argv: list[str]) -> str | None:
    """The --db value of the traced inner command, if it had one."""
    for i, tok in enumerate(argv):
        if tok == "--db" and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith("--db="):
            return tok.split("=", 1)[1]
    return None


def _cmd_trace_tools(argv: list[str]) -> int:
    """``trace report`` / ``trace export`` over a saved JSONL trace."""
    from repro.observe import export as obs_export

    parser = argparse.ArgumentParser(prog=f"repro-perf trace {argv[0]}")
    parser.add_argument("--trace", required=True,
                        help="JSONL trace written by `repro-perf trace ...`")
    if argv[0] == "report":
        parser.add_argument("--top", type=int, default=20)
        a = parser.parse_args(argv[1:])
        print(obs_export.render_report(obs_export.read_jsonl(a.trace),
                                       top=a.top))
        return 0
    parser.add_argument("--out", required=True,
                        help="Chrome trace_event JSON to write")
    a = parser.parse_args(argv[1:])
    n = obs_export.write_chrome_trace(obs_export.read_jsonl(a.trace), a.out)
    print(f"wrote {n} trace events to {a.out} "
          "(load in about:tracing or ui.perfetto.dev)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run an inner repro-perf command under self-telemetry and export."""
    import os
    from pathlib import Path

    from repro import observe
    from repro.observe import export as obs_export

    argv = list(args.cmd)
    if argv and argv[0] in ("report", "export"):
        return _cmd_trace_tools(argv)
    if not argv:
        print("trace: missing command to run "
              "(e.g. `repro-perf trace run-msa --threads 8`)",
              file=sys.stderr)
        return 2
    if argv[0] == "trace":
        print("trace: cannot trace the tracer", file=sys.stderr)
        return 2
    tracer = observe.enable(fresh=True)
    try:
        with observe.span(f"cli.{argv[0]}", argv=" ".join(argv)):
            rc = main(argv)
    finally:
        observe.disable()
    prefix = Path(args.trace_out or "trace")
    jsonl_path = prefix.with_suffix(".jsonl")
    chrome_path = prefix.with_suffix(".json")
    records = obs_export.to_jsonl_records(tracer)
    obs_export.write_jsonl(tracer, jsonl_path)
    obs_export.write_chrome_trace(records, chrome_path, pid=os.getpid())
    print()
    print(f"trace: {len(tracer.finished())} spans -> {jsonl_path} (JSONL), "
          f"{chrome_path} (Chrome trace_event)")
    db_path = _trace_inner_db(argv)
    if db_path:
        from repro.observe.bridge import store_self_profile
        from repro.perfdmf import PerfDMF

        with PerfDMF(db_path) as db:
            trial, _ = store_self_profile(
                tracer, db, experiment=argv[0],
                metadata={"argv": " ".join(argv), "exit_code": rc},
            )
        print(f"self-profile stored as repro.observe/{argv[0]}/{trial.name} "
              f"in {db_path}")
    print()
    print(obs_export.render_report(records, top=12))
    return rc


def _cmd_trace_app(args: argparse.Namespace) -> int:
    """Traced application run: timeline, snapshots, wait-state diagnosis."""
    from repro.workflows import trace_application

    if args.app == "msa":
        run_kwargs = dict(
            n_sequences=args.sequences, n_threads=args.threads,
            schedule=args.schedule, seed=args.seed,
        )
    else:
        from repro.apps.genidlest import RIB45, RIB90, RunConfig

        case = RIB45 if args.case == "45rib" else RIB90
        run_kwargs = dict(config=RunConfig(
            case=case, version=args.version, optimized=args.optimized,
            n_procs=args.procs, iterations=args.iterations,
        ))

    if args.db:
        from repro.perfdmf import PerfDMF

        with PerfDMF(args.db) as repo:
            result = trace_application(
                args.app, repository=repo, out=args.out, **run_kwargs
            )
    else:
        result = trace_application(args.app, out=args.out, **run_kwargs)

    trace = result.trace
    print(f"traced {args.app} trial {result.trial.name}: "
          f"{len(trace)} events on {len(trace.cpu_ids())} cpus, "
          f"{trace.duration():.6f} s simulated")
    labels = [
        snap.metadata.get("interval", {}).get("label") or snap.name
        for snap in result.snapshots
    ]
    print(f"{len(result.snapshots)} interval snapshots: " + ", ".join(labels))

    if result.wait_states:
        top = sorted(result.wait_states,
                     key=lambda s: s.wait_seconds, reverse=True)[:10]
        print(f"\n{len(result.wait_states)} wait states "
              f"(top {len(top)} by wait time):")
        for ws in top:
            who = "thread" if ws.construct == "openmp" else "rank"
            print(f"  {ws.kind:>18}  {who} {ws.rank} delays "
                  f"{who} {ws.victim}  {ws.wait_seconds * 1e3:9.3f} ms"
                  f"  in {ws.event}")
    else:
        print("\n(no wait states detected)")

    print("\nRule-firing audit trail:")
    for line in result.harness.explain():
        print(f"  {line}")
    print()
    print(result.report)

    if result.trial_id is not None:
        print(f"stored trial + {len(result.interval_ids)} interval "
              f"sub-trials in {args.db}")
    if result.chrome_path:
        print(f"Chrome trace: {result.chrome_path} "
              "(load in about:tracing or ui.perfetto.dev)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Render the rule-firing audit trail for a stored trial's diagnosis."""
    from repro.core.harness import RuleHarness
    from repro.knowledge.rulebase import diagnose_genidlest, diagnose_load_balance
    from repro.perfdmf import PerfDMF

    with PerfDMF(args.db) as repo:
        trial = repo.load_trial(args.app, args.exp, args.trial)
    harness = RuleHarness(args.rules) if args.rules else None
    diagnose = (
        diagnose_load_balance if args.script == "load-balance"
        else diagnose_genidlest
    )
    harness = diagnose(trial, harness=harness)
    print(f"Rule-firing audit trail: {args.app}/{args.exp}/{args.trial}")
    print("-" * 60)
    for line in harness.explain():
        print(f"  {line}")
    recs = harness.recommendations()
    if not recs:
        print("\n(no recommendations asserted)")
        return 0
    print(f"\n{len(recs)} recommendation(s); provenance chains:")
    for fact in recs:
        print()
        print(harness.why(fact))
    return 0


def _default_endpoint(db_path: str) -> str:
    """A predictable per-repository endpoint so the two-terminal flow
    needs no coordination: serve the file next to itself."""
    if db_path and db_path != ":memory:" and "mode=memory" not in db_path:
        return f"unix:{db_path}.sock"
    return "unix:repro-serve.sock"


def _serve_errors(handler):
    """Client verbs print clean errors (no traceback) and exit 2 when the
    service is unreachable or rejects the request."""

    def wrapped(args: argparse.Namespace) -> int:
        from repro.core.result import AnalysisError

        try:
            return handler(args)
        except (AnalysisError, ConnectionError, FileNotFoundError,
                TimeoutError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return wrapped


def _serve_client(args: argparse.Namespace):
    from repro.serve import SocketClient

    endpoint = args.endpoint or _default_endpoint(args.db or "")
    return SocketClient(endpoint, timeout=args.client_timeout)


def _parse_job_params(args: argparse.Namespace) -> dict:
    """``--params '{json}'`` plus repeated ``--param key=value`` (values
    JSON-coerced, bare words kept as strings)."""
    params: dict = {}
    if args.params:
        loaded = json.loads(args.params)
        if not isinstance(loaded, dict):
            raise ValueError("--params must be a JSON object")
        params.update(loaded)
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--param needs key=value, got {item!r}")
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value
    return params


def _cmd_serve_start(args: argparse.Namespace) -> int:
    from repro.serve import AnalysisService, SelfMonitor, ServeServer

    db = args.db or ":memory:"
    endpoint = args.endpoint or _default_endpoint(db)
    service = AnalysisService(
        db_path=db, workers=args.workers, mode=args.mode,
        queue_depth=args.queue_depth, default_timeout=args.job_timeout,
    )
    service.start()
    monitor = None
    if args.monitor_interval and args.monitor_interval > 0:
        monitor = SelfMonitor(service, service.db,
                              interval=args.monitor_interval).start()
    server = ServeServer(service, endpoint).start()
    print(f"serving {db} at {server.endpoint} "
          f"({args.workers} {args.mode} workers, "
          f"queue depth {args.queue_depth}"
          + (f", self-monitor every {args.monitor_interval:g}s"
             if monitor else "") + ")")
    print(f"submit with: repro-perf serve submit "
          f"--endpoint {server.endpoint} diagnose --param app=... ")
    sys.stdout.flush()
    try:
        server.serve_forever()
    finally:
        if monitor is not None:
            monitor.stop()
        service.stop()
    print("service stopped")
    return 0


@_serve_errors
def _cmd_serve_submit(args: argparse.Namespace) -> int:
    try:
        params = _parse_job_params(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _serve_client(args) as client:
        job = client.submit(
            args.kind, params, priority=args.priority,
            timeout=args.job_timeout, block=args.block,
        )
        if args.wait and job["status"] not in ("done", "failed",
                                               "timeout", "cancelled"):
            job = client.wait(job["id"], timeout=args.wait_timeout)
    print(json.dumps(job, indent=None if args.compact else 2, default=str))
    if args.wait and job["status"] != "done":
        return 1
    return 0


@_serve_errors
def _cmd_serve_status(args: argparse.Namespace) -> int:
    with _serve_client(args) as client:
        payload = client.status(args.id)
    print(json.dumps(payload, indent=None if args.compact else 2,
                     default=str))
    return 0


@_serve_errors
def _cmd_serve_stats(args: argparse.Namespace) -> int:
    import time as _time

    with _serve_client(args) as client:
        frames = 0
        try:
            while True:
                stats = client.stats()
                print(json.dumps(stats, indent=None if args.compact else 2,
                                 default=str))
                frames += 1
                if not args.watch:
                    break
                if args.iterations and frames >= args.iterations:
                    break
                sys.stdout.flush()
                _time.sleep(args.watch)
        except KeyboardInterrupt:
            pass
    return 0


@_serve_errors
def _cmd_serve_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.serve import render_top

    with _serve_client(args) as client:
        frames = 0
        try:
            while True:
                frame = render_top(client.stats())
                if not args.once and frames and sys.stdout.isatty():
                    # Home the cursor between frames; avoid a full clear
                    # so scrollback (and piped output) stays readable.
                    print("\x1b[H\x1b[J", end="")
                print(frame)
                frames += 1
                if args.once or (args.iterations
                                 and frames >= args.iterations):
                    break
                sys.stdout.flush()
                _time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
    return 0


@_serve_errors
def _cmd_serve_metrics(args: argparse.Namespace) -> int:
    with _serve_client(args) as client:
        sys.stdout.write(client.metrics())
    return 0


@_serve_errors
def _cmd_serve_health(args: argparse.Namespace) -> int:
    with _serve_client(args) as client:
        health = client.health()
    print(json.dumps(health, indent=None if args.compact else 2,
                     default=str))
    return 0 if health.get("status") == "ok" else 1


@_serve_errors
def _cmd_serve_explain_job(args: argparse.Namespace) -> int:
    with _serve_client(args) as client:
        explain = client.explain_job(args.id)
    if args.json:
        print(json.dumps(explain, indent=2, default=str))
        return 0
    wall = explain["wall_seconds"]
    print(f"job {explain['id']} ({explain['kind']}) — {explain['status']}, "
          f"{explain['attempts']} attempt(s), "
          f"{'cache hit, ' if explain['cache_hit'] else ''}"
          f"wall {wall:.4f}s")
    if not explain.get("traced"):
        print("  (job was not traced; no attribution available)")
        return 0
    attribution = explain.get("attribution") or {}
    for phase in ("queue", "retry", "exec", "cache", "other"):
        seconds = attribution.get(phase)
        if seconds is None:
            continue
        share = seconds / wall if wall > 0 else 0.0
        bar = "#" * int(round(share * 40))
        print(f"  {phase:>6}  {seconds:9.4f}s  {share:6.1%}  {bar}")
    handler = explain.get("handler_seconds")
    if handler is not None:
        print(f"  (handler span: {handler:.4f}s inside exec)")
    print(f"  {len(explain.get('spans') or [])} span(s), "
          f"coverage {explain.get('coverage', 0.0):.1%} of job wall time")
    if args.chrome:
        from repro.observe.export import write_timeline_chrome

        spans = explain.get("spans") or []
        write_timeline_chrome(spans, args.chrome,
                              label=f"job {explain['id']} "
                                    f"({explain['kind']})")
        print(f"  Chrome trace: {args.chrome} ({len(spans)} spans)")
    return 0


@_serve_errors
def _cmd_serve_trends(args: argparse.Namespace) -> int:
    from repro.knowledge import render_report
    from repro.perfdmf import PerfDMF
    from repro.serve import diagnose_trends, load_snapshots

    with PerfDMF(args.db, read_only=True) as db:
        snapshots = load_snapshots(db, last=args.window)
        if len(snapshots) < 3:
            print(f"only {len(snapshots)} self-monitor snapshot(s) in "
                  f"{args.db}; need >= 3 (serve start --monitor-interval)",
                  file=sys.stderr)
            return 2
        harness = diagnose_trends(db, window=args.window)
    print(render_report(harness,
                        title=f"Service trends ({len(snapshots)} "
                              f"snapshots)"))
    return 0


@_serve_errors
def _cmd_serve_diagnose(args: argparse.Namespace) -> int:
    with _serve_client(args) as client:
        payload = client.diagnose()
    print(payload["report"])
    return 0


@_serve_errors
def _cmd_serve_stop(args: argparse.Namespace) -> int:
    with _serve_client(args) as client:
        client.shutdown()
    print("service stopping")
    return 0


def _exp_spec(args: argparse.Namespace):
    from repro.experiments import ExperimentSpec

    return ExperimentSpec.from_toml(args.spec)


@_serve_errors
def _cmd_exp_plan(args: argparse.Namespace) -> int:
    spec = _exp_spec(args)
    plan = spec.expand()
    print(f"spec {spec.name!r} ({args.spec})")
    print(f"  app={spec.app} metric={spec.metric} "
          f"key_event={spec.key_event} vector={spec.vector}")
    print(f"  spec hash {plan.spec_hash[:12]} — {len(plan.cases)} case(s), "
          f"{plan.excluded} excluded")
    rigor = spec.rigor
    print(f"  rigor: {rigor.min_runs}-{rigor.max_runs} runs/case, "
          f"CI {rigor.confidence:.0%} rel half-width "
          f"< {rigor.relative_halfwidth}")
    if args.cases:
        for case in plan.cases:
            factors = " ".join(f"{k}={v}" for k, v in
                               sorted(case.factors.items()))
            print(f"  [{case.index:4d}] {case.short}  {factors}")
    return 0


@_serve_errors
def _cmd_exp_run(args: argparse.Namespace) -> int:
    spec = _exp_spec(args)
    progress = None if args.quiet else print
    if args.endpoint:
        # Drive a long-lived served repository; state is written through
        # our own connection to the same file.
        from repro.experiments import ExperimentState, Orchestrator
        from repro.perfdmf import PerfDMF
        from repro.serve import SocketClient

        if not args.db:
            print("error: exp run --endpoint needs --db (or "
                  f"${DB_ENV_VAR}) for the resume state", file=sys.stderr)
            return 2
        plan = spec.expand()
        with PerfDMF(args.db) as repo, \
                SocketClient(args.endpoint,
                             timeout=args.client_timeout) as client:
            state = ExperimentState(repo)
            result = Orchestrator(
                client, state, plan,
                max_in_flight=args.max_in_flight,
                case_retries=args.case_retries,
                analyze=not args.no_analyze,
                trace=bool(args.trace_out),
                progress=progress,
            ).run()
    else:
        from repro.workflows import run_experiment

        result = run_experiment(
            spec,
            db_path=args.db or ":memory:",
            workers=args.workers,
            mode=args.mode,
            max_in_flight=args.max_in_flight,
            case_retries=args.case_retries,
            analyze=not args.no_analyze,
            trace=bool(args.trace_out),
            progress=progress,
        )
    from repro import observe

    summary = result.summary()
    observe.echo(
        f"run {summary['run_id']}: {summary['cases']} case(s) — "
        f"{summary['converged']} converged, "
        f"{summary['non_converged']} non-converged, "
        f"{summary['failed']} failed, {summary['skipped']} skipped "
        f"({summary['total_runs']} runs, {summary['reruns']} adaptive "
        f"reruns, {summary['wall_seconds']:.2f}s)")
    if args.trace_out:
        if result.spans:
            n = result.export_trace(args.trace_out)
            observe.echo(f"distributed trace: {args.trace_out} "
                         f"({n} spans)")
        else:
            observe.echo("no spans collected (all cases skipped?); "
                         "trace not written")
    return 1 if summary["failed"] else 0


@_serve_errors
def _cmd_exp_status(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentState, render_status
    from repro.perfdmf import PerfDMF

    spec = _exp_spec(args)
    with PerfDMF(args.db) as repo:
        state = ExperimentState(repo)
        run_id = state.run_id_for(spec.spec_hash)
        if run_id is None:
            print(f"error: no run recorded for spec {spec.name!r} "
                  f"in {args.db}", file=sys.stderr)
            return 2
        print(render_status(state, run_id))
    return 0


@_serve_errors
def _cmd_exp_report(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentState, render_report
    from repro.perfdmf import PerfDMF

    spec = _exp_spec(args)
    with PerfDMF(args.db) as repo:
        state = ExperimentState(repo)
        run_id = state.run_id_for(spec.spec_hash)
        if run_id is None:
            print(f"error: no run recorded for spec {spec.name!r} "
                  f"in {args.db}", file=sys.stderr)
            return 2
        print(render_report(state, run_id, diagnose=not args.no_diagnose))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    if args.app == "msa":
        from repro.workflows import msa_tuning_loop

        outcome = msa_tuning_loop(n_sequences=args.sequences,
                                  n_threads=args.threads)
    else:
        from repro.apps.genidlest import RIB45, RIB90
        from repro.workflows import genidlest_tuning_loop

        case = RIB45 if args.case == "45rib" else RIB90
        outcome = genidlest_tuning_loop(case=case, n_procs=args.procs,
                                        iterations=args.iterations)
    print(outcome.describe())
    return 0


def _parse_kv(pairs: list[str] | None, *, what: str) -> dict:
    """``key=value`` pairs with JSON-decoded values (bare strings pass
    through), for annotation and factor options."""
    import json as _json

    out: dict = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: {what} must be key=value, got {pair!r}")
        try:
            out[key] = _json.loads(value)
        except ValueError:
            out[key] = value
    return out


def _parse_trial_ref(ref: str) -> tuple[str, str, str]:
    parts = ref.split("/")
    if len(parts) != 3 or not all(parts):
        raise SystemExit(
            f"error: trial reference must be APP/EXP/TRIAL, got {ref!r}"
        )
    return parts[0], parts[1], parts[2]


@_regress_errors
def _cmd_lineage_record(args: argparse.Namespace) -> int:
    from repro.lineage import LineageStore, TrialRef
    from repro.perfdmf import PerfDMF

    annotations = _parse_kv(args.annotate, what="--annotate")
    factors = _parse_kv(args.factor, what="--factor")
    if factors:
        annotations["factors"] = factors
    store = LineageStore(PerfDMF(args.db))
    store.record(args.version, parents=args.parent or [],
                 annotations=annotations)
    store.attach_trials(args.version, [
        TrialRef(*_parse_trial_ref(ref), role=role)
        for role, refs in (("trial", args.trial), ("baseline", args.baseline))
        for ref in refs or []])
    record = store.get(args.version)
    parents = ", ".join(record.parents) or "(root)"
    print(f"recorded {record.version_id} <- {parents} "
          f"[code {record.code_version}, rulebase {record.rulebase_version}"
          f", {len(record.trials)} trial(s)]")
    return 0


@_regress_errors
def _cmd_lineage_log(args: argparse.Namespace) -> int:
    import json as _json

    from repro.lineage import LineageStore
    from repro.perfdmf import PerfDMF

    store = LineageStore(PerfDMF(args.db))
    records = store.history(args.tip, limit=args.limit)
    if args.json:
        print(_json.dumps([r.to_dict() for r in records], indent=2))
        return 0
    if not records:
        print("no versions recorded")
        return 0
    print(f"{'version':<20}{'parents':<24}{'code':<10}{'rulebase':<18}"
          f"{'trials':>7}")
    for r in records:
        parents = ",".join(p[:12] for p in r.parents) or "(root)"
        print(f"{r.short:<20}{parents:<24}{r.code_version:<10}"
              f"{r.rulebase_version:<18}{len(r.trials):>7}")
    return 0


@_regress_errors
def _cmd_lineage_scan(args: argparse.Namespace) -> int:
    import json as _json

    from repro.lineage import LineageStore, diagnose_lineage, scan_range
    from repro.perfdmf import PerfDMF

    store = LineageStore(PerfDMF(args.db))
    scan = scan_range(store, args.start, args.end,
                      application=args.application,
                      experiment=args.experiment,
                      policy=_regress_policy(args))
    harness = diagnose_lineage(scan)
    if args.json:
        payload = scan.to_dict()
        payload["recommendations"] = [
            dict(r.items()) for r in harness.recommendations()
        ]
        print(_json.dumps(payload, indent=2))
    else:
        for cmp_ in scan.comparisons:
            marker = {"regressed": "!", "improved": "+"}.get(cmp_.verdict,
                                                             " ")
            print(f" {marker} {cmp_.parent} -> {cmp_.version}: "
                  f"{cmp_.verdict} "
                  f"({cmp_.report.total_relative_change:+.1%})")
        if scan.gaps:
            print(f"   gaps (no trial): {', '.join(scan.gaps)}")
        for rec in harness.recommendations():
            print(f" * [{rec.get('category')}] {rec.get('message')}")
    return 1 if scan.regressions else 0


@_regress_errors
def _cmd_lineage_bisect(args: argparse.Namespace) -> int:
    import json as _json

    from repro.experiments.rigor import RigorPolicy
    from repro.lineage import LineageStore, PerfBisector
    from repro.perfdmf import PerfDMF

    client = None
    if args.endpoint:
        from repro.serve import SocketClient

        client = SocketClient(args.endpoint, timeout=args.client_timeout)
    store = LineageStore(PerfDMF(args.db))
    rigor = RigorPolicy(min_runs=args.min_runs, max_runs=args.max_runs,
                        relative_halfwidth=args.rel_halfwidth)
    bisector = PerfBisector(
        store, client=client,
        application=args.application, experiment=args.experiment,
        policy=_regress_policy(args), rigor=rigor,
        wait_timeout=args.client_timeout,
    )
    try:
        result = bisector.bisect(args.good, args.bad)
    finally:
        if client is not None:
            client.close()
    if args.out:
        with open(args.out, "w") as fh:
            _json.dump(result.to_dict(), fh, indent=2)
    if args.json:
        print(_json.dumps(result.to_dict(), indent=2))
        return 0 if result.status == "found" else 1
    if result.status == "no-regression":
        print(f"no regression between {result.good} and {result.bad} "
              f"({result.probe_count} probe(s))")
        return 1
    print(f"first bad version: {result.first_bad} "
          f"(last good: {result.last_good})")
    if result.offending:
        off = result.offending
        print(f"  offending: {off['event']} [{off['metric']}] "
              f"{off['relative_change']:+.1%} "
              f"({off['severity']:.1%} of runtime)")
    sources = {p.version: p.source for p in result.probes}
    synthesized = sum(1 for s in sources.values() if s == "synthesized")
    print(f"  probes: {result.probe_count}/{result.budget} budget "
          f"({synthesized} synthesized, "
          f"{len(sources) - synthesized} banked)")
    for rec in result.recommendations:
        print(f"  * [{rec.get('category')}] {rec.get('message')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="Capturing Performance Knowledge for Automated Analysis "
        "(SC 2008) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="regenerate a paper figure/table")
    p.add_argument("target",
                   choices=["fig4a", "fig4b", "fig5a", "fig5b", "table1"])
    p.add_argument("--sequences", type=int, default=400)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("run-msa", help="simulate one MSAP configuration")
    p.add_argument("--sequences", type=int, default=400)
    p.add_argument("--threads", type=int, default=16)
    p.add_argument("--schedule", default="static")
    p.add_argument("--seed", type=int, default=0)
    _add_db_arg(p, help="PerfDMF sqlite file to store the trial in")
    p.set_defaults(func=_cmd_run_msa)

    p = sub.add_parser("run-genidlest",
                       help="simulate one GenIDLEST configuration")
    p.add_argument("--case", choices=["45rib", "90rib"], default="90rib")
    p.add_argument("--version", choices=["openmp", "mpi"], default="openmp")
    p.add_argument("--procs", type=int, default=16)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--optimized", action="store_true")
    _add_db_arg(p, help="PerfDMF sqlite file to store the trial in")
    p.set_defaults(func=_cmd_run_genidlest)

    p = sub.add_parser("diagnose", help="diagnose a stored trial")
    _add_db_arg(p, required=True)
    p.add_argument("--app", required=True)
    p.add_argument("--exp", required=True)
    p.add_argument("--trial", required=True)
    p.add_argument("--script", choices=["load-balance", "genidlest"],
                   default="genidlest")
    p.add_argument("--rules", help="extra .prl rule file to load")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("list", help="browse a PerfDMF repository")
    _add_db_arg(p, required=True)
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("compare",
                       help="per-event ratio of two stored trials")
    _add_db_arg(p, required=True)
    p.add_argument("--app", required=True)
    p.add_argument("--exp", required=True)
    p.add_argument("trial_a")
    p.add_argument("trial_b")
    p.add_argument("--metric", default="TIME")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("regress", help="performance-regression sentinel")
    rsub = p.add_subparsers(dest="regress_command", required=True)

    rp = rsub.add_parser("baseline", help="tag or list baseline trials")
    rp.add_argument("action", choices=["set", "list"])
    _add_db_arg(rp, required=True)
    rp.add_argument("--app")
    rp.add_argument("--exp")
    rp.add_argument("--trial")
    rp.add_argument("--reason", help="why this trial becomes the baseline")
    rp.set_defaults(func=_cmd_regress_baseline)

    rp = rsub.add_parser(
        "check",
        help="gate a trial against its baseline (exit 1 on regression)")
    _add_db_arg(rp, required=True)
    rp.add_argument("--app", required=True)
    rp.add_argument("--exp", required=True)
    rp.add_argument("--trial", help="candidate trial (default: newest)")
    rp.add_argument("--metric", help="compare only this metric")
    rp.add_argument("--threshold", type=float,
                    help="per-event relative-change threshold (default 0.10)")
    rp.add_argument("--alpha", type=float,
                    help="Welch t-test significance level (default 0.05)")
    rp.add_argument("--promote", action="store_true",
                    help="auto-promote the baseline on accepted improvements")
    rp.add_argument("--no-diagnose", action="store_true",
                    help="skip the chained rule diagnosis")
    rp.set_defaults(func=_cmd_regress_check)

    rp = rsub.add_parser(
        "report",
        help="full regression report with explanation chains (exit 0)")
    _add_db_arg(rp, required=True)
    rp.add_argument("--app", required=True)
    rp.add_argument("--exp", required=True)
    rp.add_argument("--trial")
    rp.add_argument("--metric")
    rp.add_argument("--threshold", type=float)
    rp.add_argument("--alpha", type=float)
    rp.set_defaults(func=_cmd_regress_report)

    p = sub.add_parser(
        "trace",
        help="self-telemetry: run a command traced, or report/export traces")
    p.add_argument("--trace-out", default=None,
                   help="output path prefix (default ./trace => trace.jsonl "
                        "+ trace.json)")
    p.add_argument("cmd", nargs=argparse.REMAINDER,
                   help="inner repro-perf command, or report/export ...")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "trace-app",
        help="run an app simulation with event tracing + timeline diagnosis")
    p.add_argument("app", choices=["msa", "genidlest"])
    p.add_argument("--out", help="Chrome trace_event JSON to write")
    _add_db_arg(p, help="PerfDMF sqlite file for the trial + interval "
                   "sub-trials")
    # msa options
    p.add_argument("--sequences", type=int, default=200)
    p.add_argument("--threads", type=int, default=16)
    p.add_argument("--schedule", default="static")
    p.add_argument("--seed", type=int, default=0)
    # genidlest options
    p.add_argument("--case", choices=["45rib", "90rib"], default="90rib")
    p.add_argument("--version", choices=["openmp", "mpi"], default="mpi")
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--optimized", action="store_true")
    p.set_defaults(func=_cmd_trace_app)

    p = sub.add_parser(
        "explain",
        help="rule-firing audit trail + provenance for a stored trial")
    _add_db_arg(p, required=True)
    p.add_argument("--app", required=True)
    p.add_argument("--exp", required=True)
    p.add_argument("--trial", required=True)
    p.add_argument("--script", choices=["load-balance", "genidlest"],
                   default="genidlest")
    p.add_argument("--rules", help="extra .prl rule file to load")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "serve",
        help="analysis service: job queue + worker pool + result cache")
    ssub = p.add_subparsers(dest="serve_command", required=True)

    sp = ssub.add_parser("start", help="start serving a repository")
    _add_db_arg(sp, help="PerfDMF sqlite file to serve")
    sp.add_argument("--endpoint",
                    help="unix:PATH or tcp:HOST:PORT "
                         "(default: unix:<db>.sock)")
    sp.add_argument("--workers", type=int, default=4)
    sp.add_argument("--mode", choices=["thread", "process"],
                    default="thread",
                    help="execution vehicles: in-process threads or "
                         "killable child processes (needs a file db)")
    sp.add_argument("--queue-depth", type=int, default=64,
                    help="bounded queue depth (backpressure past this)")
    sp.add_argument("--job-timeout", type=float, default=30.0,
                    help="default per-job wall-clock budget, seconds")
    sp.add_argument("--monitor-interval", type=float, default=0.0,
                    metavar="SECONDS",
                    help="snapshot service.stats() into PerfDMF trials "
                         "every N seconds (0 = off; see serve trends)")
    sp.set_defaults(func=_cmd_serve_start)

    def _client_args(cp: argparse.ArgumentParser) -> None:
        _add_db_arg(cp, help="repository the service was started on "
                             "(to derive the default endpoint)")
        cp.add_argument("--endpoint",
                        help="unix:PATH or tcp:HOST:PORT "
                             "(default: unix:<db>.sock)")
        cp.add_argument("--client-timeout", type=float, default=60.0,
                        help="socket timeout, seconds")
        cp.add_argument("--compact", action="store_true",
                        help="single-line JSON output")

    sp = ssub.add_parser("submit", help="submit one analysis job")
    _client_args(sp)
    sp.add_argument("kind",
                    help="job kind (diagnose, compare, regress-check, "
                         "trace-app, pipeline, sleep, ...)")
    sp.add_argument("--param", action="append", metavar="KEY=VALUE",
                    help="job parameter (repeatable; value JSON-coerced)")
    sp.add_argument("--params", help="job parameters as one JSON object")
    sp.add_argument("--priority", type=int, default=0)
    sp.add_argument("--job-timeout", type=float, default=None,
                    help="per-job wall-clock budget override, seconds")
    sp.add_argument("--block", action="store_true",
                    help="wait for queue space instead of failing when full")
    sp.add_argument("--no-wait", dest="wait", action="store_false",
                    help="print the queued job record and return")
    sp.add_argument("--wait-timeout", type=float, default=300.0)
    sp.set_defaults(func=_cmd_serve_submit)

    sp = ssub.add_parser("status", help="show one job, or all jobs")
    _client_args(sp)
    sp.add_argument("--id", type=int, help="job id (default: all jobs)")
    sp.set_defaults(func=_cmd_serve_status)

    sp = ssub.add_parser("stats",
                         help="queue/cache/worker statistics as JSON")
    _client_args(sp)
    sp.add_argument("--watch", type=float, default=0.0, metavar="SECONDS",
                    help="re-print every N seconds until interrupted")
    sp.add_argument("--iterations", type=int, default=0,
                    help="with --watch: stop after N frames (0 = forever)")
    sp.set_defaults(func=_cmd_serve_stats)

    sp = ssub.add_parser(
        "top",
        help="live fleet dashboard: queue, latency, cache, workers")
    _client_args(sp)
    sp.add_argument("--interval", type=float, default=2.0,
                    help="refresh interval, seconds")
    sp.add_argument("--once", action="store_true",
                    help="print one frame and exit")
    sp.add_argument("--iterations", type=int, default=0,
                    help="stop after N frames (0 = forever)")
    sp.set_defaults(func=_cmd_serve_top)

    sp = ssub.add_parser(
        "metrics",
        help="Prometheus text exposition of the service's metrics")
    _client_args(sp)
    sp.set_defaults(func=_cmd_serve_metrics)

    sp = ssub.add_parser(
        "health",
        help="one-line health verdict (exit 1 when degraded)")
    _client_args(sp)
    sp.set_defaults(func=_cmd_serve_health)

    sp = ssub.add_parser(
        "explain-job",
        help="attribute one job's wall time to queue/retry/exec/cache "
             "phases from its stitched trace")
    _client_args(sp)
    sp.add_argument("id", type=int, help="job id")
    sp.add_argument("--json", action="store_true",
                    help="full explanation (spans included) as JSON")
    sp.add_argument("--chrome", metavar="OUT.json",
                    help="also export the job's stitched timeline as a "
                         "Chrome trace_event file")
    sp.set_defaults(func=_cmd_serve_explain_job)

    sp = ssub.add_parser(
        "trends",
        help="trend diagnosis over stored self-monitor snapshots "
             "(reads the db file directly)")
    _add_db_arg(sp, required=True)
    sp.add_argument("--window", type=int, default=5,
                    help="most recent snapshots to consider")
    sp.set_defaults(func=_cmd_serve_trends)

    sp = ssub.add_parser(
        "diagnose",
        help="run the service-rules rulebase over the service's own health")
    _client_args(sp)
    sp.set_defaults(func=_cmd_serve_diagnose)

    sp = ssub.add_parser("stop", help="shut the service down")
    _client_args(sp)
    sp.set_defaults(func=_cmd_serve_stop)

    p = sub.add_parser(
        "exp",
        help="declarative experiments: plan/run/status/report a TOML spec")
    esub = p.add_subparsers(dest="exp_command", required=True)

    ep = esub.add_parser("plan",
                         help="expand a spec and show the case plan")
    ep.add_argument("spec", help="experiment spec (TOML)")
    ep.add_argument("--cases", action="store_true",
                    help="list every case with its key and factors")
    ep.set_defaults(func=_cmd_exp_plan)

    ep = esub.add_parser(
        "run",
        help="drive a spec to completion (resumable; exit 1 on failures)")
    ep.add_argument("spec", help="experiment spec (TOML)")
    _add_db_arg(ep, help="PerfDMF sqlite file holding trials + resume "
                         "state (default: in-memory, non-resumable)")
    ep.add_argument("--endpoint",
                    help="drive an already-running service "
                         "(unix:PATH or tcp:HOST:PORT) instead of "
                         "spinning a private one")
    ep.add_argument("--client-timeout", type=float, default=60.0,
                    help="socket timeout when using --endpoint, seconds")
    ep.add_argument("--workers", type=int, default=4,
                    help="worker count for the private service")
    ep.add_argument("--mode", choices=["thread", "process"],
                    default="thread",
                    help="private-service vehicles (process needs a "
                         "file db)")
    ep.add_argument("--max-in-flight", type=int, default=8,
                    help="cases executing concurrently")
    ep.add_argument("--case-retries", type=int, default=1,
                    help="resubmissions per failed trial run")
    ep.add_argument("--no-analyze", action="store_true",
                    help="skip the per-case analyze-case diagnosis job")
    ep.add_argument("--trace-out", metavar="OUT.json",
                    help="thread one distributed trace per case and "
                         "export the whole run as a Chrome trace")
    ep.add_argument("--quiet", action="store_true",
                    help="suppress per-case progress lines")
    ep.set_defaults(func=_cmd_exp_run)

    ep = esub.add_parser("status",
                         help="per-case convergence table for a spec's run")
    ep.add_argument("spec", help="experiment spec (TOML)")
    _add_db_arg(ep, required=True)
    ep.set_defaults(func=_cmd_exp_status)

    ep = esub.add_parser(
        "report",
        help="full report: status + attention list + rule critique")
    ep.add_argument("spec", help="experiment spec (TOML)")
    _add_db_arg(ep, required=True)
    ep.add_argument("--no-diagnose", action="store_true",
                    help="skip the experiment-rules critique")
    ep.set_defaults(func=_cmd_exp_report)

    p = sub.add_parser(
        "lineage",
        help="commit-anchored performance history: record/log/scan/bisect")
    lsub = p.add_subparsers(dest="lineage_command", required=True)

    lp = lsub.add_parser("record",
                         help="record a code version (and attach trials)")
    _add_db_arg(lp, required=True)
    lp.add_argument("version", help="version id (commit sha, tag, ...)")
    lp.add_argument("--parent", action="append", metavar="VERSION",
                    help="parent version (repeat for merges)")
    lp.add_argument("--annotate", action="append", metavar="KEY=VALUE",
                    help="annotation (value parsed as JSON when possible)")
    lp.add_argument("--factor", action="append", metavar="KEY=VALUE",
                    help="experiment factor for later sample synthesis "
                         "(collected under the 'factors' annotation)")
    lp.add_argument("--trial", action="append", metavar="APP/EXP/TRIAL",
                    help="attach a stored trial to this version")
    lp.add_argument("--baseline", action="append", metavar="APP/EXP/TRIAL",
                    help="attach a stored trial as this version's baseline")
    lp.set_defaults(func=_cmd_lineage_record)

    lp = lsub.add_parser("log",
                         help="show version history (newest first)")
    _add_db_arg(lp, required=True)
    lp.add_argument("--tip", help="start from this version (default: "
                                  "newest tip)")
    lp.add_argument("--limit", type=int, help="show at most N versions")
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(func=_cmd_lineage_log)

    def _scan_policy_args(lp: argparse.ArgumentParser) -> None:
        lp.add_argument("--application", help="restrict to one application")
        lp.add_argument("--experiment", help="restrict to one experiment")
        lp.add_argument("--metric", help="restrict detection to one metric")
        lp.add_argument("--threshold", type=float,
                        help="min relative change to flag (default 0.10)")
        lp.add_argument("--alpha", type=float,
                        help="significance level (default 0.05)")

    lp = lsub.add_parser(
        "scan",
        help="sweep regression detectors along history (exit 1 if any "
             "step regressed)")
    _add_db_arg(lp, required=True)
    lp.add_argument("--start", help="oldest version (default: root)")
    lp.add_argument("--end", help="newest version (default: tip)")
    _scan_policy_args(lp)
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(func=_cmd_lineage_scan)

    def _bisect_args(lp: argparse.ArgumentParser) -> None:
        _add_db_arg(lp, required=True)
        lp.add_argument("good", help="known-good version")
        lp.add_argument("bad", nargs="?",
                        help="known-bad version (default: newest tip)")
        _scan_policy_args(lp)
        lp.add_argument("--endpoint",
                        help="serve endpoint (unix:PATH or tcp:HOST:PORT) "
                             "for synthesizing missing samples")
        lp.add_argument("--client-timeout", type=float, default=120.0,
                        help="per-probe job timeout, seconds")
        lp.add_argument("--min-runs", type=int, default=3,
                        help="reruns per synthesized probe before assessing")
        lp.add_argument("--max-runs", type=int, default=8,
                        help="rerun ceiling per synthesized probe")
        lp.add_argument("--rel-halfwidth", type=float, default=0.10,
                        help="CI half-width convergence target")
        lp.add_argument("--json", action="store_true",
                        help="print the full JSON report")
        lp.add_argument("--out", metavar="REPORT.json",
                        help="also write the JSON report to a file")
        lp.set_defaults(func=_cmd_lineage_bisect)

    lp = lsub.add_parser(
        "bisect",
        help="binary-search history for the regression-introducing version")
    _bisect_args(lp)

    p = sub.add_parser(
        "bisect",
        help="binary-search performance history (alias for lineage bisect)")
    _bisect_args(p)

    p = sub.add_parser("tune", help="run a closed tuning loop")
    p.add_argument("app", choices=["msa", "genidlest"])
    p.add_argument("--sequences", type=int, default=200)
    p.add_argument("--threads", type=int, default=16)
    p.add_argument("--case", choices=["45rib", "90rib"], default="90rib")
    p.add_argument("--procs", type=int, default=16)
    p.add_argument("--iterations", type=int, default=3)
    p.set_defaults(func=_cmd_tune)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rc = args.func(args)
    # env-var path: REPRO_OBSERVE=1 enables collection at import;
    # REPRO_OBSERVE_OUT=trace.jsonl also exports it on exit.
    import os

    out = os.environ.get("REPRO_OBSERVE_OUT")
    if out:
        from repro import observe

        if observe.enabled() and observe.get_tracer().finished():
            from repro.observe.export import write_jsonl

            write_jsonl(observe.get_tracer(), out)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
