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
        the inner command has a db (--db or $REPRO_PERFDMF_DB), store the
        self-profile as a PerfDMF trial under repro.observe/<command>
        (the dogfood loop).

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

Every verb runs behind one error boundary (:func:`main`): a
``ProfileError``, an ``AnalysisError`` (``SpecError`` included) or an
``OSError`` (connection errors and timeouts included) prints ``error:
...`` and exits 2.  Exit 1 is an answer, not an error: a regression, a
failed job, degraded health, or a bisect that found no regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Every ``--db`` option falls back to this environment variable, so a
#: shell (or CI job) can set the repository once instead of repeating it.
DB_ENV_VAR = "REPRO_PERFDMF_DB"


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


def _msa_kwargs(args: argparse.Namespace) -> dict:
    return dict(n_sequences=args.sequences, n_threads=args.threads,
                schedule=args.schedule, seed=args.seed)


def _genidlest_config(args: argparse.Namespace):
    from repro.apps.genidlest import RunConfig, case_config

    return RunConfig(case=case_config(args.case), version=args.version,
                     optimized=args.optimized, n_procs=args.procs,
                     iterations=args.iterations)


def _cmd_run_msa(args: argparse.Namespace) -> int:
    from repro.apps.msa import run_msa_trial

    result = run_msa_trial(**_msa_kwargs(args))
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
    from repro.apps.genidlest import run_genidlest

    config = _genidlest_config(args)
    result = run_genidlest(config)
    print(f"trial {result.trial.name}: wall {result.wall_seconds:.3f} s")
    if args.db:
        from repro.perfdmf import PerfDMF

        with PerfDMF(args.db) as repo:
            repo.save_trial("GenIDLEST", config.case.name, result.trial,
                            replace=True)
        print(f"stored as GenIDLEST/{config.case.name}/{result.trial.name} "
              f"in {args.db}")
    return 0


def _diagnose(args: argparse.Namespace):
    from repro.knowledge import diagnose_stored
    from repro.perfdmf import PerfDMF

    with PerfDMF(args.db) as repo:
        return diagnose_stored(repo, args.app, args.exp, args.trial,
                               script=args.script, rules=args.rules)


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.knowledge import render_report

    harness = _diagnose(args)
    print(render_report(harness, title=f"Diagnosis of {args.app}/{args.trial}"))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Render the rule-firing audit trail for a stored trial's diagnosis."""
    harness = _diagnose(args)
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


def _cmd_compare(args: argparse.Namespace) -> int:
    """The §III.B comparison workflow: ratio of two stored trials."""
    from repro.core.script import trial_ratios
    from repro.perfdmf import PerfDMF

    with PerfDMF(args.db) as repo:
        rows = trial_ratios(repo, args.app, args.exp, args.trial_a,
                            args.trial_b, args.metric)
    print(f"{args.trial_a} / {args.trial_b} per-event {args.metric} ratio "
          "(>1 means the first trial is slower):")
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


def _regress_policy(args: argparse.Namespace):
    from repro.regress import ThresholdPolicy

    return ThresholdPolicy.from_options(args.metric, args.threshold,
                                        args.alpha)


def _cmd_regress_baseline(args: argparse.Namespace) -> int:
    from repro.core.result import AnalysisError
    from repro.lineage import LineageStore
    from repro.perfdmf import PerfDMF

    if args.action == "set" and not (args.app and args.exp and args.trial):
        raise AnalysisError("baseline set requires --app, --exp and --trial")
    with PerfDMF(args.db) as db:
        store = LineageStore(db)
        if args.action == "set":
            store.promote(args.app, args.exp, args.trial,
                          reason=args.reason or "set via CLI")
            print(f"baseline for {args.app}/{args.exp} -> {args.trial}")
            return 0
        # list
        if args.app and args.exp:
            chain = store.baseline_chain(args.app, args.exp)
            rows = [(v, ref) for v in chain for ref in v.baselines]
            if not rows:
                print("(no baseline history)")
                return 0
            for version, ref in rows:
                mark = "*" if version is chain[-1] else " "
                reason = version.annotations.get("reason")
                print(f" {mark} {ref.application}/{ref.experiment}: "
                      f"{ref.trial}" + (f"  ({reason})" if reason else ""))
            return 0
        records = store.baselines()
        if not records:
            print("(no baselines set)")
            return 0
        for version in records:
            ref = version.baselines[0]
            reason = version.annotations.get("reason")
            print(f"{ref.application}/{ref.experiment}: {ref.trial}"
                  + (f"  ({reason})" if reason else ""))
    return 0


def _cmd_regress_check(args: argparse.Namespace) -> int:
    """``regress check`` (exit 1 on a regression) and ``regress report``
    (always diagnosed, with explanation chains, exit 0)."""
    from repro.perfdmf import PerfDMF
    from repro.regress import check, render_regression_report

    report = args.regress_command == "report"
    with PerfDMF(args.db) as db:
        outcome = check(
            db, args.app, args.exp, args.trial,
            policy=_regress_policy(args),
            diagnose=report or not args.no_diagnose,
            auto_promote=not report and args.promote,
        )
    print(render_regression_report(outcome.report, outcome.harness))
    if outcome.promoted:
        print(f"\nbaseline auto-promoted to {outcome.report.candidate_trial}")
    if not report:
        return outcome.exit_code
    for fact in (outcome.harness.facts("Recommendation")
                 if outcome.harness else []):
        print()
        print(outcome.harness.why(fact))
    return 0


def _cmd_trace_tools(argv: list[str]) -> int:
    """``trace report`` / ``trace export`` over a saved JSONL trace."""
    from repro.core.result import AnalysisError
    from repro.observe import export as obs_export

    parser = argparse.ArgumentParser(prog=f"repro-perf trace {argv[0]}")
    parser.add_argument("--trace", required=True,
                        help="JSONL trace written by `repro-perf trace ...`")
    if argv[0] == "report":
        parser.add_argument("--top", type=int, default=20)
    else:
        parser.add_argument("--out", required=True,
                            help="Chrome trace_event JSON to write")
    a = parser.parse_args(argv[1:])
    try:
        records = obs_export.read_jsonl(a.trace)
    except ValueError as exc:  # a malformed record, named by path:line
        raise AnalysisError(str(exc)) from None
    if argv[0] == "report":
        print(obs_export.render_report(records, top=a.top))
        return 0
    n = obs_export.write_chrome(obs_export.spans_from_records(records), a.out,
                                events=obs_export.events_from_records(records))
    print(f"wrote {n} trace events to {a.out} "
          "(load in about:tracing or ui.perfetto.dev)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run an inner repro-perf command under self-telemetry and export."""
    from pathlib import Path

    from repro import observe
    from repro.core.result import AnalysisError
    from repro.observe import export as obs_export

    argv = list(args.cmd)
    if argv and argv[0] in ("report", "export"):
        return _cmd_trace_tools(argv)
    if not argv:
        raise AnalysisError("trace: missing command to run "
                            "(e.g. `repro-perf trace run-msa --threads 8`)")
    if argv[0] == "trace":
        raise AnalysisError("trace: cannot trace the tracer")
    inner = build_parser().parse_args(argv)
    tracer = observe.enable(fresh=True)
    try:
        with observe.span(f"cli.{argv[0]}", argv=" ".join(argv)):
            rc = _run(inner)
    finally:
        observe.disable()
    prefix = Path(args.trace_out or "trace")
    jsonl_path = prefix.with_suffix(".jsonl")
    chrome_path = prefix.with_suffix(".json")
    records = obs_export.to_jsonl_records(tracer)
    obs_export.write_jsonl(tracer, jsonl_path)
    obs_export.write_chrome(tracer.finished(), chrome_path,
                            events=tracer.events.records())
    print()
    print(f"trace: {len(tracer.finished())} spans -> {jsonl_path} (JSONL), "
          f"{chrome_path} (Chrome trace_event)")
    db_path = getattr(inner, "db", None)
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
        run_kwargs = _msa_kwargs(args)
    else:
        run_kwargs = dict(config=_genidlest_config(args))

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


def _default_endpoint(db_path: str) -> str:
    """A predictable per-repository endpoint so the two-terminal flow
    needs no coordination: serve the file next to itself."""
    if db_path and db_path != ":memory:" and "mode=memory" not in db_path:
        return f"unix:{db_path}.sock"
    return "unix:repro-serve.sock"


def _serve_client(args: argparse.Namespace):
    from repro.serve import SocketClient

    endpoint = args.endpoint or _default_endpoint(args.db or "")
    return SocketClient(endpoint, timeout=args.client_timeout)


def _print_json(args: argparse.Namespace, payload) -> None:
    print(json.dumps(payload, indent=None if args.compact else 2,
                     default=str))


def _parse_kv(pairs: list[str] | None, *, what: str) -> dict:
    """``key=value`` pairs with JSON-decoded values (bare words pass
    through as strings), for job parameters, annotations and factors."""
    from repro.core.result import AnalysisError

    out: dict = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise AnalysisError(f"{what} must be key=value, got {pair!r}")
        try:
            out[key] = json.loads(value)
        except ValueError:
            out[key] = value
    return out


def _parse_job_params(args: argparse.Namespace) -> dict:
    """``--params '{json}'`` plus repeated ``--param key=value``."""
    from repro.core.result import AnalysisError

    params: dict = {}
    if args.params:
        try:
            loaded = json.loads(args.params)
        except ValueError as exc:
            raise AnalysisError(f"--params is not JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise AnalysisError("--params must be a JSON object")
        params.update(loaded)
    params.update(_parse_kv(args.param, what="--param"))
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


def _cmd_serve_submit(args: argparse.Namespace) -> int:
    params = _parse_job_params(args)
    with _serve_client(args) as client:
        job = client.submit(
            args.kind, params, priority=args.priority,
            timeout=args.job_timeout, block=args.block,
        )
        if args.wait and job["status"] not in ("done", "failed",
                                               "timeout", "cancelled"):
            job = client.wait(job["id"], timeout=args.wait_timeout)
    _print_json(args, job)
    return 1 if args.wait and job["status"] != "done" else 0


def _cmd_serve_status(args: argparse.Namespace) -> int:
    with _serve_client(args) as client:
        _print_json(args, client.status(args.id))
    return 0


def _watch(args: argparse.Namespace, show, interval: float | None) -> int:
    """Call ``show(stats, frame)`` every ``interval`` seconds until
    ``--iterations`` frames (0 = forever) or an interrupt; an
    ``interval`` of None shows one frame."""
    import time

    with _serve_client(args) as client:
        frame = 0
        try:
            while True:
                show(client.stats(), frame)
                frame += 1
                if interval is None or (args.iterations
                                        and frame >= args.iterations):
                    break
                sys.stdout.flush()
                time.sleep(interval)
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    return _watch(args, lambda stats, frame: _print_json(args, stats),
                  args.watch or None)


def _cmd_serve_top(args: argparse.Namespace) -> int:
    from repro.serve import render_top

    def show(stats, frame: int) -> None:
        if frame and sys.stdout.isatty():
            # Home the cursor between frames; avoid a full clear so
            # scrollback (and piped output) stays readable.
            print("\x1b[H\x1b[J", end="")
        print(render_top(stats))

    return _watch(args, show, None if args.once else args.interval)


def _cmd_serve_metrics(args: argparse.Namespace) -> int:
    with _serve_client(args) as client:
        sys.stdout.write(client.metrics())
    return 0


def _cmd_serve_health(args: argparse.Namespace) -> int:
    with _serve_client(args) as client:
        health = client.health()
    _print_json(args, health)
    return 0 if health.get("status") == "ok" else 1


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
        from repro.observe.export import write_chrome

        spans = explain.get("spans") or []
        write_chrome(spans, args.chrome,
                     label=f"job {explain['id']} ({explain['kind']})")
        print(f"  Chrome trace: {args.chrome} ({len(spans)} spans)")
    return 0


def _cmd_serve_trends(args: argparse.Namespace) -> int:
    from repro.core.result import AnalysisError
    from repro.knowledge import render_report
    from repro.perfdmf import PerfDMF
    from repro.serve import diagnose_trends, load_snapshots

    with PerfDMF(args.db, read_only=True) as db:
        snapshots = load_snapshots(db, last=args.window)
        if len(snapshots) < 3:
            raise AnalysisError(
                f"only {len(snapshots)} self-monitor snapshot(s) in "
                f"{args.db}; need >= 3 (serve start --monitor-interval)")
        harness = diagnose_trends(db, window=args.window)
    print(render_report(harness,
                        title=f"Service trends ({len(snapshots)} "
                              f"snapshots)"))
    return 0


def _cmd_serve_diagnose(args: argparse.Namespace) -> int:
    with _serve_client(args) as client:
        payload = client.diagnose()
    print(payload["report"])
    return 0


def _cmd_serve_stop(args: argparse.Namespace) -> int:
    with _serve_client(args) as client:
        client.shutdown()
    print("service stopping")
    return 0


def _exp_spec(args: argparse.Namespace):
    from repro.experiments import ExperimentSpec

    return ExperimentSpec.from_toml(args.spec)


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


def _cmd_exp_run(args: argparse.Namespace) -> int:
    from repro import observe

    spec = _exp_spec(args)
    knobs = dict(max_in_flight=args.max_in_flight,
                 case_retries=args.case_retries,
                 analyze=not args.no_analyze, trace=bool(args.trace_out),
                 progress=None if args.quiet else print)
    if args.endpoint:
        # Drive a long-lived served repository; state is written through
        # our own connection to the same file.
        from repro.core.result import AnalysisError
        from repro.experiments import ExperimentState, Orchestrator
        from repro.perfdmf import PerfDMF
        from repro.serve import SocketClient

        if not args.db:
            raise AnalysisError(f"exp run --endpoint needs --db (or "
                                f"${DB_ENV_VAR}) for the resume state")
        plan = spec.expand()
        with PerfDMF(args.db) as repo, \
                SocketClient(args.endpoint,
                             timeout=args.client_timeout) as client:
            result = Orchestrator(client, ExperimentState(repo), plan,
                                  **knobs).run()
    else:
        from repro.workflows import run_experiment

        result = run_experiment(spec, db_path=args.db or ":memory:",
                                workers=args.workers, mode=args.mode, **knobs)
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


def _cmd_exp_report(args: argparse.Namespace) -> int:
    """``exp status`` (per-case table) and ``exp report`` (full report)
    for the run recorded for a spec."""
    from repro.core.result import AnalysisError
    from repro.experiments import ExperimentState, render_report, render_status
    from repro.perfdmf import PerfDMF

    spec = _exp_spec(args)
    with PerfDMF(args.db) as repo:
        state = ExperimentState(repo)
        run_id = state.run_id_for(spec.spec_hash)
        if run_id is None:
            raise AnalysisError(
                f"no run recorded for spec {spec.name!r} in {args.db}")
        if args.exp_command == "status":
            print(render_status(state, run_id))
        else:
            print(render_report(state, run_id, diagnose=not args.no_diagnose))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    if args.app == "msa":
        from repro.workflows import msa_tuning_loop

        outcome = msa_tuning_loop(n_sequences=args.sequences,
                                  n_threads=args.threads)
    else:
        from repro.apps.genidlest import case_config
        from repro.workflows import genidlest_tuning_loop

        outcome = genidlest_tuning_loop(case=case_config(args.case),
                                        n_procs=args.procs,
                                        iterations=args.iterations)
    print(outcome.describe())
    return 0


def _parse_trial_ref(ref: str) -> tuple[str, str, str]:
    from repro.core.result import AnalysisError

    parts = ref.split("/")
    if len(parts) != 3 or not all(parts):
        raise AnalysisError(
            f"trial reference must be APP/EXP/TRIAL, got {ref!r}")
    return parts[0], parts[1], parts[2]


def _cmd_lineage_record(args: argparse.Namespace) -> int:
    from repro.lineage import LineageStore, TrialRef
    from repro.perfdmf import PerfDMF

    annotations = _parse_kv(args.annotate, what="--annotate")
    factors = _parse_kv(args.factor, what="--factor")
    if factors:
        annotations["factors"] = factors
    refs = [TrialRef(*_parse_trial_ref(ref), role=role)
            for role, refs in (("trial", args.trial),
                               ("baseline", args.baseline))
            for ref in refs or []]
    with PerfDMF(args.db) as db:
        store = LineageStore(db)
        store.record(args.version, parents=args.parent or [],
                     annotations=annotations)
        store.attach_trials(args.version, refs)
        record = store.get(args.version)
    parents = ", ".join(record.parents) or "(root)"
    print(f"recorded {record.version_id} <- {parents} "
          f"[code {record.code_version}, rulebase {record.rulebase_version}"
          f", {len(record.trials)} trial(s)]")
    return 0


def _cmd_lineage_log(args: argparse.Namespace) -> int:
    from repro.lineage import LineageStore
    from repro.perfdmf import PerfDMF

    with PerfDMF(args.db) as db:
        records = LineageStore(db).history(args.tip, limit=args.limit)
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2))
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


def _cmd_lineage_scan(args: argparse.Namespace) -> int:
    from repro.lineage import LineageStore, diagnose_lineage, scan_range
    from repro.perfdmf import PerfDMF

    with PerfDMF(args.db) as db:
        scan = scan_range(LineageStore(db), args.start, args.end,
                          application=args.application,
                          experiment=args.experiment,
                          policy=_regress_policy(args))
        harness = diagnose_lineage(scan)
    if args.json:
        payload = scan.to_dict()
        payload["recommendations"] = [
            dict(r.items()) for r in harness.recommendations()
        ]
        print(json.dumps(payload, indent=2))
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


def _cmd_bisect(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.experiments.rigor import RigorPolicy
    from repro.lineage import LineageStore, PerfBisector
    from repro.perfdmf import PerfDMF

    rigor = RigorPolicy(min_runs=args.min_runs, max_runs=args.max_runs,
                        relative_halfwidth=args.rel_halfwidth)
    connection = nullcontext()
    if args.endpoint:
        from repro.serve import SocketClient

        connection = SocketClient(args.endpoint, timeout=args.client_timeout)
    with connection as client, PerfDMF(args.db) as db:
        result = PerfBisector(
            LineageStore(db), client=client,
            application=args.application, experiment=args.experiment,
            policy=_regress_policy(args), rigor=rigor,
            wait_timeout=args.client_timeout,
        ).bisect(args.good, args.bad)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
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


def _options(group: list, *names: str, required: tuple = (),
             **defaults) -> argparse.ArgumentParser:
    """An argparse parent parser over one shared option ``group`` of
    ``(flag, add_argument keywords)``: all of it, or only the dests in
    ``names``.  Dests in ``required`` must be given; ``defaults`` are
    the verb's own defaults, by dest."""
    parser = argparse.ArgumentParser(add_help=False)
    for flag, keywords in group:
        dest = flag[2:].replace("-", "_")
        if names and dest not in names:
            continue
        if dest in defaults:
            keywords = {**keywords, "default": defaults[dest]}
        parser.add_argument(flag, required=dest in required, **keywords)
    return parser


def _db_option(*, required: bool = False,
               help: str = "PerfDMF sqlite file") -> argparse.ArgumentParser:
    """``--db`` with an ``$REPRO_PERFDMF_DB`` default."""
    env = os.environ.get(DB_ENV_VAR)
    help += f" (default: ${DB_ENV_VAR}" + (f" = {env}" if env else "") + ")"
    return _options([("--db", dict(default=env, help=help))],
                    required=("db",) if required and not env else ())


def _verb(sub, name: str, func, help: str,
          *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help, parents=list(parents))
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    # Option groups several verbs share; per-verb defaults go to _options.
    trial = [("--app", {}), ("--exp", {}), ("--trial", {})]
    policy = [
        ("--metric", dict(help="compare only this metric")),
        ("--threshold", dict(type=float, help="per-event relative-change "
                                              "threshold (default 0.10)")),
        ("--alpha", dict(type=float, help="Welch t-test significance "
                                          "level (default 0.05)")),
    ]
    scope = [("--application", dict(help="restrict to one application")),
             ("--experiment", dict(help="restrict to one experiment"))]
    client = [
        ("--endpoint", dict(help="serve endpoint, unix:PATH or "
                                 "tcp:HOST:PORT (default: unix:<db>.sock)")),
        ("--client-timeout", dict(type=float, default=60.0,
                                  help="service socket timeout, seconds")),
        ("--compact", dict(action="store_true",
                           help="single-line JSON output")),
    ]
    service = [
        ("--workers", dict(type=int, default=4)),
        ("--mode", dict(choices=["thread", "process"], default="thread",
                        help="execution vehicles: in-process threads or "
                             "killable child processes (needs a file db)")),
    ]
    msa = [("--sequences", dict(type=int, default=400)),
           ("--threads", dict(type=int, default=16)),
           ("--schedule", dict(default="static")),
           ("--seed", dict(type=int, default=0))]
    # apps.genidlest.CASES, spelled out: importing the simulator here
    # would slow the start of every verb.
    genidlest = [("--case", dict(choices=["45rib", "90rib"], default="90rib")),
                 ("--version", dict(choices=["openmp", "mpi"],
                                    default="openmp")),
                 ("--procs", dict(type=int, default=16)),
                 ("--iterations", dict(type=int, default=3)),
                 ("--optimized", dict(action="store_true"))]
    db = _db_option(required=True)
    store = _db_option(help="PerfDMF sqlite file to store the trial in")

    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="Capturing Performance Knowledge for Automated Analysis "
        "(SC 2008) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _verb(sub, "reproduce", _cmd_reproduce,
              "regenerate a paper figure/table", _options(msa, "sequences"))
    p.add_argument("target",
                   choices=["fig4a", "fig4b", "fig5a", "fig5b", "table1"])
    _verb(sub, "run-msa", _cmd_run_msa, "simulate one MSAP configuration",
          _options(msa), store)
    _verb(sub, "run-genidlest", _cmd_run_genidlest,
          "simulate one GenIDLEST configuration", _options(genidlest), store)
    for name, func, help in (
            ("diagnose", _cmd_diagnose, "diagnose a stored trial"),
            ("explain", _cmd_explain,
             "rule-firing audit trail + provenance for a stored trial")):
        p = _verb(sub, name, func, help, db,
                  _options(trial, required=("app", "exp", "trial")))
        # knowledge.DIAGNOSE_SCRIPTS, spelled out: importing the rulebase
        # here would slow the start of every verb.
        p.add_argument("--script", choices=["load-balance", "genidlest"],
                       default="genidlest")
        p.add_argument("--rules", help="extra .prl rule file to load")
    _verb(sub, "list", _cmd_list, "browse a PerfDMF repository", db)
    p = _verb(sub, "compare", _cmd_compare,
              "per-event ratio of two stored trials", db,
              _options(trial, "app", "exp", required=("app", "exp")),
              _options(policy, "metric", metric="TIME"))
    p.add_argument("trial_a")
    p.add_argument("trial_b")

    p = sub.add_parser("regress", help="performance-regression sentinel")
    rsub = p.add_subparsers(dest="regress_command", required=True)
    p = _verb(rsub, "baseline", _cmd_regress_baseline,
              "tag or list baseline trials", db, _options(trial))
    p.add_argument("action", choices=["set", "list"])
    p.add_argument("--reason", help="why this trial becomes the baseline")
    gate = (db, _options(trial, required=("app", "exp")), _options(policy))
    p = _verb(rsub, "check", _cmd_regress_check,
              "gate a trial against its baseline (exit 1 on regression)",
              *gate)
    p.add_argument("--promote", action="store_true",
                   help="auto-promote the baseline on accepted improvements")
    p.add_argument("--no-diagnose", action="store_true",
                   help="skip the chained rule diagnosis")
    _verb(rsub, "report", _cmd_regress_check,
          "full regression report with explanation chains (exit 0)", *gate)

    p = _verb(sub, "trace", _cmd_trace,
              "self-telemetry: run a command traced, or report/export traces")
    p.add_argument("--trace-out", default=None,
                   help="output path prefix (default ./trace => trace.jsonl "
                        "+ trace.json)")
    p.add_argument("cmd", nargs=argparse.REMAINDER,
                   help="inner repro-perf command, or report/export ...")
    p = _verb(sub, "trace-app", _cmd_trace_app,
              "run an app simulation with event tracing + timeline diagnosis",
              _db_option(help="PerfDMF sqlite file for the trial + interval "
                              "sub-trials"),
              _options(msa, sequences=200),
              _options(genidlest, version="mpi", procs=8))
    p.add_argument("app", choices=["msa", "genidlest"])
    p.add_argument("--out", help="Chrome trace_event JSON to write")

    p = sub.add_parser(
        "serve",
        help="analysis service: job queue + worker pool + result cache")
    ssub = p.add_subparsers(dest="serve_command", required=True)
    p = _verb(ssub, "start", _cmd_serve_start, "start serving a repository",
              _db_option(help="PerfDMF sqlite file to serve"),
              _options(client, "endpoint"), _options(service))
    p.add_argument("--queue-depth", type=int, default=64,
                   help="bounded queue depth (backpressure past this)")
    p.add_argument("--job-timeout", type=float, default=30.0,
                   help="default per-job wall-clock budget, seconds")
    p.add_argument("--monitor-interval", type=float, default=0.0,
                   metavar="SECONDS",
                   help="snapshot service.stats() into PerfDMF trials "
                        "every N seconds (0 = off; see serve trends)")
    served = (_db_option(help="repository the service was started on "
                              "(to derive the default endpoint)"),
              _options(client))
    p = _verb(ssub, "submit", _cmd_serve_submit, "submit one analysis job",
              *served)
    p.add_argument("kind",
                   help="job kind (diagnose, compare, regress-check, "
                        "trace-app, run-trial, sleep, ...)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="job parameter (repeatable; value JSON-coerced)")
    p.add_argument("--params", help="job parameters as one JSON object")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--job-timeout", type=float, default=None,
                   help="per-job wall-clock budget override, seconds")
    p.add_argument("--block", action="store_true",
                   help="wait for queue space instead of failing when full")
    p.add_argument("--no-wait", dest="wait", action="store_false",
                   help="print the queued job record and return")
    p.add_argument("--wait-timeout", type=float, default=300.0)
    p = _verb(ssub, "status", _cmd_serve_status,
              "show one job, or all jobs", *served)
    p.add_argument("--id", type=int, help="job id (default: all jobs)")
    p = _verb(ssub, "stats", _cmd_serve_stats,
              "queue/cache/worker statistics as JSON", *served)
    p.add_argument("--watch", type=float, default=0.0, metavar="SECONDS",
                   help="re-print every N seconds until interrupted")
    p.add_argument("--iterations", type=int, default=0,
                   help="with --watch: stop after N frames (0 = forever)")
    p = _verb(ssub, "top", _cmd_serve_top,
              "live fleet dashboard: queue, latency, cache, workers", *served)
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh interval, seconds")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit")
    p.add_argument("--iterations", type=int, default=0,
                   help="stop after N frames (0 = forever)")
    for name, func, help in (
            ("metrics", _cmd_serve_metrics,
             "Prometheus text exposition of the service's metrics"),
            ("health", _cmd_serve_health,
             "one-line health verdict (exit 1 when degraded)"),
            ("diagnose", _cmd_serve_diagnose,
             "run the service-rules rulebase over the service's own health"),
            ("stop", _cmd_serve_stop, "shut the service down")):
        _verb(ssub, name, func, help, *served)
    p = _verb(ssub, "explain-job", _cmd_serve_explain_job,
              "attribute one job's wall time to queue/retry/exec/cache "
              "phases from its stitched trace", *served)
    p.add_argument("id", type=int, help="job id")
    p.add_argument("--json", action="store_true",
                   help="full explanation (spans included) as JSON")
    p.add_argument("--chrome", metavar="OUT.json",
                   help="also export the job's stitched timeline as a "
                        "Chrome trace_event file")
    p = _verb(ssub, "trends", _cmd_serve_trends,
              "trend diagnosis over stored self-monitor snapshots "
              "(reads the db file directly)", db)
    p.add_argument("--window", type=int, default=5,
                   help="most recent snapshots to consider")

    p = sub.add_parser(
        "exp",
        help="declarative experiments: plan/run/status/report a TOML spec")
    esub = p.add_subparsers(dest="exp_command", required=True)
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("spec", help="experiment spec (TOML)")
    p = _verb(esub, "plan", _cmd_exp_plan,
              "expand a spec and show the case plan", spec)
    p.add_argument("--cases", action="store_true",
                   help="list every case with its key and factors")
    p = _verb(esub, "run", _cmd_exp_run,
              "drive a spec to completion (resumable; exit 1 on failures)",
              spec,
              _db_option(help="PerfDMF sqlite file holding trials + resume "
                              "state (default: in-memory, non-resumable)"),
              _options(client, "endpoint", "client_timeout"),
              _options(service))
    p.add_argument("--max-in-flight", type=int, default=8,
                   help="cases executing concurrently")
    p.add_argument("--case-retries", type=int, default=1,
                   help="resubmissions per failed trial run")
    p.add_argument("--no-analyze", action="store_true",
                   help="skip the per-case analyze-case diagnosis job")
    p.add_argument("--trace-out", metavar="OUT.json",
                   help="thread one distributed trace per case and "
                        "export the whole run as a Chrome trace")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-case progress lines")
    _verb(esub, "status", _cmd_exp_report,
          "per-case convergence table for a spec's run", spec, db)
    p = _verb(esub, "report", _cmd_exp_report,
              "full report: status + attention list + rule critique",
              spec, db)
    p.add_argument("--no-diagnose", action="store_true",
                   help="skip the experiment-rules critique")

    p = sub.add_parser(
        "lineage",
        help="commit-anchored performance history: record/log/scan")
    lsub = p.add_subparsers(dest="lineage_command", required=True)
    p = _verb(lsub, "record", _cmd_lineage_record,
              "record a code version (and attach trials)", db)
    p.add_argument("version", help="version id (commit sha, tag, ...)")
    p.add_argument("--parent", action="append", metavar="VERSION",
                   help="parent version (repeat for merges)")
    p.add_argument("--annotate", action="append", metavar="KEY=VALUE",
                   help="annotation (value parsed as JSON when possible)")
    p.add_argument("--factor", action="append", metavar="KEY=VALUE",
                   help="experiment factor for later sample synthesis "
                        "(collected under the 'factors' annotation)")
    p.add_argument("--trial", action="append", metavar="APP/EXP/TRIAL",
                   help="attach a stored trial to this version")
    p.add_argument("--baseline", action="append", metavar="APP/EXP/TRIAL",
                   help="attach a stored trial as this version's baseline")
    p = _verb(lsub, "log", _cmd_lineage_log,
              "show version history (newest first)", db)
    p.add_argument("--tip", help="start from this version (default: "
                                 "newest tip)")
    p.add_argument("--limit", type=int, help="show at most N versions")
    p.add_argument("--json", action="store_true")
    history = (db, _options(scope), _options(policy))
    p = _verb(lsub, "scan", _cmd_lineage_scan,
              "sweep regression detectors along history (exit 1 if any "
              "step regressed)", *history)
    p.add_argument("--start", help="oldest version (default: root)")
    p.add_argument("--end", help="newest version (default: tip)")
    p.add_argument("--json", action="store_true")
    p = _verb(sub, "bisect", _cmd_bisect,
              "binary-search history for the regression-introducing version",
              *history, _options(client, "endpoint", "client_timeout",
                                 client_timeout=120.0))
    p.add_argument("good", help="known-good version")
    p.add_argument("bad", nargs="?",
                   help="known-bad version (default: newest tip)")
    p.add_argument("--min-runs", type=int, default=3,
                   help="reruns per synthesized probe before assessing")
    p.add_argument("--max-runs", type=int, default=8,
                   help="rerun ceiling per synthesized probe")
    p.add_argument("--rel-halfwidth", type=float, default=0.10,
                   help="CI half-width convergence target")
    p.add_argument("--json", action="store_true",
                   help="print the full JSON report")
    p.add_argument("--out", metavar="REPORT.json",
                   help="also write the JSON report to a file")

    p = _verb(sub, "tune", _cmd_tune, "run a closed tuning loop",
              _options(msa, "sequences", "threads", sequences=200),
              _options(genidlest, "case", "procs", "iterations"))
    p.add_argument("app", choices=["msa", "genidlest"])
    return parser


def _run(args: argparse.Namespace) -> int:
    """Run one parsed verb behind the CLI's one error boundary (see the
    module docstring for the exit codes)."""
    from repro.core.result import AnalysisError
    from repro.perfdmf import ProfileError

    try:
        return args.func(args)
    except (ProfileError, AnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return _run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
