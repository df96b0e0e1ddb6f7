"""Command-line entry point: ``repro-experiments`` / ``python -m repro.cli``.

Examples::

    repro-experiments list
    repro-experiments run table2 --trials 200 --seed 1
    repro-experiments run all --seed 1
    repro-experiments run table2 --telemetry --telemetry-out t.json
    repro-experiments run table2 --telemetry --live   # live progress line
    repro-experiments report t.json          # render a telemetry file
    repro-experiments report .repro-runs/<id>  # render a run directory
    repro-experiments run table2 --json      # machine-readable rows
    repro-experiments runs list              # run-registry history
    repro-experiments runs tail latest       # replay a run's event stream
    repro-experiments runs diff A B --gate --max-regression 20%
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.analysis.cli import build_parser as build_lint_parser
from repro.experiments.registry import experiment_ids, get_experiment
from repro.telemetry import get_telemetry, stopwatch


def _workers_arg(value: str):
    """``--workers`` accepts an integer or the literal ``auto``."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce tables and figures of 'Hide and Seek: Waveform "
            "Emulation Attack and Defense in Cross-Technology Communication'"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list reproducible experiments")

    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", nargs="?", default=None,
                     help="experiment id (e.g. table2) or 'all' (optional "
                          "when --scenario names the experiment)")
    run.add_argument("--scenario", metavar="FILE", default=None,
                     help="run a sweep-backed experiment under a scenario "
                          "JSON file overriding axes, channel profile, "
                          "receiver, and detector (see docs/SCENARIOS.md)")
    run.add_argument("--trials", type=int, default=None,
                     help="override trial/waveform count where applicable")
    run.add_argument("--seed", type=int, default=0, help="RNG seed")
    run.add_argument("--workers", type=_workers_arg, default=None,
                     help="Monte Carlo engine worker processes for "
                          "engine-backed experiments, or 'auto' for the "
                          "host CPU count (default: serial; results are "
                          "identical either way at a seed)")
    run.add_argument("--chunk-size", type=int, default=None,
                     help="trials per engine dispatch (default: derived "
                          "from the trial count and worker count)")
    run.add_argument("--on-error", choices=("raise", "retry", "skip"),
                     default="raise",
                     help="trial-failure policy for engine-backed "
                          "experiments: raise (default), retry with the "
                          "same seed, or skip and record the failure")
    run.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                     help="persist each completed sweep point atomically "
                          "under DIR so an interrupted run can resume")
    run.add_argument("--resume", action="store_true",
                     help="skip sweep points already checkpointed under "
                          "--checkpoint-dir (requires --checkpoint-dir)")
    run.add_argument("--adaptive", action="store_true",
                     help="stop each sweep point once its confidence "
                          "interval reaches the target relative half-width "
                          "and reallocate the saved trials to unconverged "
                          "points (engine-backed experiments; --trials "
                          "becomes the per-point base budget)")
    run.add_argument("--rel-precision", type=float, default=None,
                     metavar="FRAC",
                     help="adaptive target relative CI half-width "
                          "(default 0.1; requires --adaptive)")
    run.add_argument("--max-trials", type=int, default=None, metavar="N",
                     help="adaptive hard per-point trial cap (default "
                          "4x the base budget; requires --adaptive)")
    run.add_argument("--save", metavar="DIR", default=None,
                     help="also write <id>.csv (rows), <id>.npz (series), "
                          "and <id>.manifest.json (provenance)")
    run.add_argument("--json", action="store_true",
                     help="print results as JSON rows instead of tables")
    run.add_argument("--telemetry", action="store_true",
                     help="record spans/metrics across the run and persist "
                          "a run directory under --runs-dir")
    run.add_argument("--telemetry-out", metavar="FILE", default=None,
                     help="write the telemetry snapshot (implies --telemetry)")
    run.add_argument("--runs-dir", metavar="DIR", default=None,
                     help="run-registry root for --telemetry runs "
                          "(default: .repro-runs)")
    run.add_argument("--live", action="store_true",
                     help="render live progress (trials/s, ETA) on stderr "
                          "while the sweep runs (implies --telemetry)")

    dataset = subparsers.add_parser(
        "dataset",
        help="generate a labelled chip-constellation dataset (for ML work)",
    )
    dataset.add_argument("out", help="output .npz path")
    dataset.add_argument("--per-class", type=int, default=50,
                         help="waveforms per class")
    dataset.add_argument("--snrs", type=float, nargs="+",
                         default=[7.0, 12.0, 17.0], help="SNR grid in dB")
    dataset.add_argument("--seed", type=int, default=0)

    subparsers.add_parser(
        "lint",
        parents=[build_lint_parser()],
        add_help=False,
        help="run reprolint, the AST invariant checker (rules R001-R007, "
             "R009, R011, R012)",
    )

    report = subparsers.add_parser(
        "report",
        help="render a saved telemetry file or run directory, or (given "
             "a fresh output path) run every experiment and write a "
             "markdown report",
    )
    report.add_argument("path",
                        help="telemetry .json or run directory to render, "
                             "or markdown output path to generate")
    report.add_argument("--trials", type=int, default=None,
                        help="override per-experiment trial counts")
    report.add_argument("--seed", type=int, default=0)

    runs = subparsers.add_parser(
        "runs",
        help="inspect the persistent run registry (.repro-runs/)",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def _runs_dir_arg(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--runs-dir", metavar="DIR", default=None,
                         help="run-registry root (default: .repro-runs)")

    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    _runs_dir_arg(runs_list)
    runs_list.add_argument("--limit", type=int, default=20,
                           help="most recent runs to show (default: 20)")

    runs_show = runs_sub.add_parser(
        "show", help="render one run's manifest, timings, and event summary"
    )
    runs_show.add_argument("run",
                           help="run id, unique prefix, 'latest', or path")
    _runs_dir_arg(runs_show)

    runs_tail = runs_sub.add_parser(
        "tail", help="replay (and optionally follow) a run's event stream"
    )
    runs_tail.add_argument("run", nargs="?", default="latest",
                           help="run id, unique prefix, 'latest' (default), "
                                "or path")
    runs_tail.add_argument("--follow", action="store_true",
                           help="keep polling for new events until the run "
                                "finishes")
    _runs_dir_arg(runs_tail)

    runs_diff = runs_sub.add_parser(
        "diff",
        help="diff two runs' result rows, counters, and timing trees",
    )
    runs_diff.add_argument("run_a", help="baseline run (id, prefix, 'latest', "
                                         "or a run-directory path)")
    runs_diff.add_argument("run_b", help="candidate run")
    runs_diff.add_argument("--gate", action="store_true",
                           help="exit non-zero on row diffs, failure-counter "
                                "increases, or wall-clock regressions")
    runs_diff.add_argument("--max-regression", metavar="PCT", default="20%",
                           help="allowed wall-clock slowdown before the gate "
                                "trips (default: 20%%)")
    runs_diff.add_argument("--no-wallclock", action="store_true",
                           help="skip wall-clock checks (cross-host "
                                "baselines)")
    _runs_dir_arg(runs_diff)
    return parser


def _generate_report(out: str, trials: Optional[int], seed: int) -> None:
    """Run the full registry and write one markdown reproduction report."""
    lines = [
        "# Reproduction report",
        "",
        "Generated by `repro-experiments report` — every table and figure "
        "of *Hide and Seek* (ICDCS 2019), regenerated from this package.",
        "",
    ]
    for experiment_id in experiment_ids():
        entry = get_experiment(experiment_id)
        kwargs = {"rng": seed}
        if trials is not None and entry.trials_param is not None:
            kwargs[entry.trials_param] = trials
        with stopwatch() as timer:
            result = entry.run(**kwargs)
        print(f"[{experiment_id}: {timer.seconds:.1f} s]")
        lines.append(f"## {experiment_id} — {entry.description}")
        lines.append("")
        lines.append("```")
        lines.append(result.format_table())
        lines.append("```")
        lines.append("")
    with open(out, "w") as handle:
        handle.write("\n".join(lines))
    print(f"wrote report to {out}")


def _generate_dataset(out: str, per_class: int, snrs, seed: int) -> None:
    """Labelled constellations: authentic (0) vs emulated (1) receptions."""
    import numpy as np

    from repro.defense.constellation import reconstruct_constellation
    from repro.defense.mlbaseline import feature_vector
    from repro.experiments.common import (
        prepare_authentic,
        prepare_emulated,
        transmit_once,
    )
    from repro.experiments.defense_common import defense_receiver
    from repro.utils.rng import spawn_rngs

    receiver = defense_receiver()
    prepared = {0: prepare_authentic(), 1: prepare_emulated(rng=seed)}
    rngs = spawn_rngs(seed, 2 * len(snrs) * per_class)

    features, labels, snr_column = [], [], []
    index = 0
    for snr in snrs:
        for label, link in prepared.items():
            for _ in range(per_class):
                packet = transmit_once(link, receiver, snr, rngs[index])
                index += 1
                if packet is None or not packet.decoded:
                    continue
                chips = packet.diagnostics.psdu_quadrature_soft_chips
                if chips.size < 64:
                    continue
                points = reconstruct_constellation(chips)
                features.append(feature_vector(points))
                labels.append(label)
                snr_column.append(snr)
    np.savez(
        out,
        features=np.stack(features),
        labels=np.asarray(labels, dtype=np.int64),
        snr_db=np.asarray(snr_column),
        feature_names=np.asarray(
            ["re_c40", "abs_c40", "c42", "abs_c20", "c63"]
        ),
    )
    print(f"wrote {len(labels)} labelled samples "
          f"({int(np.sum(labels))} attacks) to {out}")


def _save_result(result, directory: str) -> None:
    """Persist one ExperimentResult as CSV rows, NPZ series, manifest."""
    import csv
    import os

    import numpy as np

    from repro.telemetry import write_manifest

    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, f"{result.experiment_id}.csv")
    with open(csv_path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=result.columns)
        writer.writeheader()
        for row in result.rows:
            writer.writerow({column: row.get(column, "")
                             for column in result.columns})
    if result.series:
        npz_path = os.path.join(directory, f"{result.experiment_id}.npz")
        np.savez(npz_path, **{name: np.asarray(values)
                              for name, values in result.series.items()})
    if result.manifest is not None:
        manifest_path = os.path.join(
            directory, f"{result.experiment_id}.manifest.json"
        )
        write_manifest(manifest_path, result.manifest)


def _json_default(value: Any) -> Any:
    """JSON encoder fallback for numpy scalars/arrays and complex values."""
    import numpy as np

    if isinstance(value, (np.generic,)):
        value = value.item()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def _result_to_json(result) -> Dict[str, Any]:
    """Machine-readable view of one ExperimentResult (rows, not series)."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": result.rows,
        "notes": list(result.notes),
    }


#: ``(capability token, CLI flag)`` pairs checked by ``_unsupported_flags``.
_CAPABILITY_FLAGS = (
    ("trials", "--trials"),
    ("workers", "--workers"),
    ("chunk_size", "--chunk-size"),
    ("on_error", "--on-error"),
    ("checkpoint", "--checkpoint-dir"),
    ("adaptive", "--adaptive"),
    ("scenario", "--scenario"),
)


def _requested_capabilities(args: argparse.Namespace) -> List[str]:
    """Capability tokens the given CLI flags actually exercise."""
    requested = []
    if args.trials is not None:
        requested.append("trials")
    if args.workers is not None:
        requested.append("workers")
    if args.chunk_size is not None:
        requested.append("chunk_size")
    if args.on_error != "raise":
        requested.append("on_error")
    if args.checkpoint_dir is not None:
        requested.append("checkpoint")
    if args.adaptive:
        requested.append("adaptive")
    if args.scenario is not None:
        requested.append("scenario")
    return requested


def _unsupported_flags(entry, args: argparse.Namespace) -> List[str]:
    """CLI flags the entry's declared capabilities cannot honour."""
    requested = set(_requested_capabilities(args))
    return [
        flag for capability, flag in _CAPABILITY_FLAGS
        if capability in requested and capability not in entry.capabilities
    ]


def _entry_kwargs(
    entry,
    trials: Optional[int],
    workers: Any,
    chunk_size: Optional[int],
    on_error: str,
    checkpoint_dir: Optional[str],
    resume: bool,
    adaptive: bool,
    rel_precision: Optional[float],
    max_trials: Optional[int],
) -> Dict[str, Any]:
    """Engine keyword arguments from the entry's declared capabilities.

    Flags an entry does not declare are dropped here — the strict
    named-experiment path has already rejected them, and ``run all``
    deliberately applies each flag only where it is supported.
    """
    capabilities = entry.capabilities
    kwargs: Dict[str, Any] = {}
    if trials is not None and "trials" in capabilities:
        kwargs[entry.trials_param] = trials
    if workers is not None and "workers" in capabilities:
        kwargs["workers"] = workers
    if chunk_size is not None and "chunk_size" in capabilities:
        kwargs["chunk_size"] = chunk_size
    if on_error != "raise" and "on_error" in capabilities:
        kwargs["on_error"] = on_error
    if checkpoint_dir is not None and "checkpoint" in capabilities:
        kwargs["checkpoint_dir"] = checkpoint_dir
        kwargs["resume"] = resume
    if adaptive and "adaptive" in capabilities:
        kwargs["adaptive"] = True
        if rel_precision is not None:
            kwargs["rel_precision"] = rel_precision
        if max_trials is not None:
            kwargs["max_trials"] = max_trials
    return kwargs


def _run_one(
    experiment_id: str,
    trials: Optional[int],
    seed: int,
    save_dir: Optional[str] = None,
    as_json: bool = False,
    workers: Any = None,
    chunk_size: Optional[int] = None,
    on_error: str = "raise",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    run_dir: Any = None,
    adaptive: bool = False,
    rel_precision: Optional[float] = None,
    max_trials: Optional[int] = None,
    scenario: Optional[Dict[str, Any]] = None,
) -> None:
    telemetry = get_telemetry()
    entry = get_experiment(experiment_id)
    kwargs = _entry_kwargs(
        entry, trials, workers, chunk_size, on_error,
        checkpoint_dir, resume, adaptive, rel_precision, max_trials,
    )
    scenario_overrides: Optional[Dict[str, Any]] = None
    if scenario is not None:
        from repro.experiments.sweep import apply_scenario, run_sweep

        scenario_overrides = apply_scenario(entry.spec, scenario)
        overrides = dict(scenario_overrides)
        if entry.trials_param is not None and entry.trials_param in kwargs:
            # --trials wins over the scenario's own trial-count axis.
            overrides[entry.trials_param] = kwargs.pop(entry.trials_param)

        def runner(**kw):
            """Scenario runs go straight through the spec runner."""
            return run_sweep(entry.spec, overrides=overrides, rng=seed, **kw)
    else:

        def runner(**kw):
            """Plain runs call the registered runner as before."""
            return entry.run(rng=seed, **kw)
    with stopwatch() as timer:
        with telemetry.span(f"experiment.{experiment_id}"):
            result = runner(**kwargs)
    elapsed = timer.seconds
    span_tree = None
    if telemetry.enabled:
        # Attach this experiment's subtree, not the whole run's.
        node = telemetry.root.children.get(f"experiment.{experiment_id}")
        span_tree = node.to_dict() if node is not None else None
    config = {"trials": trials, "workers": workers,
              "chunk_size": chunk_size, "on_error": on_error,
              "checkpoint_dir": checkpoint_dir, "resume": resume,
              "adaptive": adaptive, "rel_precision": rel_precision,
              "max_trials": max_trials,
              "elapsed_seconds": round(elapsed, 3)}
    if scenario_overrides is not None:
        config["scenario"] = scenario_overrides
    result.attach_manifest(seed=seed, config=config, span_tree=span_tree)
    if as_json:
        print(json.dumps(_result_to_json(result), default=_json_default))
    else:
        print(result.format_table())
        print(f"[{experiment_id} finished in {elapsed:.1f} s]")
    if save_dir is not None:
        _save_result(result, save_dir)
        if not as_json:
            print(f"[saved {experiment_id} to {save_dir}/]")
    if run_dir is not None:
        run_dir.write_rows(result)
    if not as_json:
        print()


def _start_run_directory(args: argparse.Namespace, targets: List[str]):
    """Open a run directory and wire the live event stream into it."""
    from repro.telemetry import (
        DEFAULT_RUNS_ROOT,
        FileEventSink,
        RunRegistry,
        StderrProgressSink,
        build_manifest,
        get_event_stream,
    )

    registry = RunRegistry(args.runs_dir or DEFAULT_RUNS_ROOT)
    run = registry.create(targets[0] if len(targets) == 1 else "multi")
    stream = get_event_stream()
    stream.reset()
    stream.add_sink(FileEventSink(run.events_path))
    if args.live and not args.json:
        stream.add_sink(StderrProgressSink())
    stream.enable(run_id=run.run_id)
    # Written up front with status "running" so a killed run is still
    # identifiable next to its partial event stream.
    run.write_manifest(build_manifest(
        seed=args.seed,
        config={"trials": args.trials, "workers": args.workers,
                "chunk_size": args.chunk_size, "on_error": args.on_error,
                "adaptive": args.adaptive},
        extra={"status": "running", "experiments": targets},
    ))
    stream.run_started(experiments=targets, seed=args.seed)
    return run


def _finish_telemetry(
    args: argparse.Namespace,
    targets: List[str],
    run: Any = None,
    status: str = "ok",
) -> None:
    """Snapshot, annotate, and persist (or print) the run's telemetry."""
    from repro.telemetry import build_manifest, get_event_stream, render_telemetry

    stream = get_event_stream()
    if run is not None:
        stream.run_finished(status=status)
    elapsed = stream.elapsed_seconds if stream.enabled else None
    stream.reset()
    telemetry = get_telemetry()
    telemetry.disable()
    payload = telemetry.snapshot()
    payload["manifest"] = build_manifest(
        seed=args.seed,
        config={"experiments": targets, "trials": args.trials},
    )
    if run is not None:
        run.write_metrics(
            {"spans": payload["spans"], "metrics": payload["metrics"]}
        )
        manifest = run.read_manifest()
        manifest["status"] = status
        if elapsed is not None:
            manifest["elapsed_seconds"] = round(elapsed, 3)
        run.write_manifest(manifest)
        print(f"[run directory: {run.path}]",
              file=sys.stderr if args.json else sys.stdout)
    if args.telemetry_out:
        with open(args.telemetry_out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        if not args.json:
            print(f"[telemetry written to {args.telemetry_out}]")
    elif not args.json:
        print(render_telemetry(payload))
    elif run is None:
        print(
            "[--json keeps stdout machine-readable; pass --telemetry-out "
            "FILE to keep the recorded telemetry]",
            file=sys.stderr,
        )


def _format_run_row(summary: Dict[str, Any]) -> str:
    """One ``runs list`` line."""
    experiments = ",".join(summary.get("experiments") or []) or "-"
    elapsed = summary.get("elapsed_seconds")
    elapsed_text = (
        f"{elapsed:8.2f}s" if isinstance(elapsed, (int, float)) else "       -"
    )
    return (
        f"{summary['run_id']:<40s} {summary['status']:<8s} "
        f"{experiments:<16s} seed={summary.get('seed')!s:<6s} "
        f"trials={summary.get('trials_done', 0):<7d} "
        f"failures={summary.get('failures', 0):<4d} {elapsed_text}"
    )


def _runs_command(args: argparse.Namespace) -> int:
    """Dispatch the ``runs list|show|tail|diff`` subcommands."""
    import time

    from repro.telemetry import (
        DEFAULT_RUNS_ROOT,
        RunRegistry,
        diff_runs,
        format_run_diff,
        parse_percentage,
        render_run_directory,
    )
    from repro.telemetry.events import format_event, read_events_jsonl

    registry = RunRegistry(args.runs_dir or DEFAULT_RUNS_ROOT)
    if args.runs_command == "list":
        runs = registry.list()
        if not runs:
            print(f"(no runs recorded under {registry.root})")
            return 0
        for run in runs[: args.limit]:
            print(_format_run_row(run.summary()))
        if len(runs) > args.limit:
            print(f"... and {len(runs) - args.limit} more "
                  f"(raise --limit to see them)")
        return 0
    if args.runs_command == "show":
        print(render_run_directory(registry.resolve(args.run)))
        return 0
    if args.runs_command == "tail":
        run = registry.resolve(args.run)
        shown = 0
        while True:
            events = (
                read_events_jsonl(run.events_path)
                if run.events_path.exists() else []
            )
            for event in events[shown:]:
                print(format_event(event))
            shown = len(events)
            finished = any(
                event.get("event") == "run_finished" for event in events
            )
            if finished or not args.follow:
                return 0
            time.sleep(0.5)
    if args.runs_command == "diff":
        diff = diff_runs(
            registry.resolve(args.run_a),
            registry.resolve(args.run_b),
            max_regression=parse_percentage(args.max_regression),
            wallclock=not args.no_wallclock,
        )
        print(format_run_diff(diff, gate=args.gate))
        return 1 if args.gate and not diff.gate_passed else 0
    raise AssertionError(f"unhandled runs subcommand {args.runs_command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI main; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in experiment_ids():
            entry = get_experiment(experiment_id)
            print(f"{experiment_id:8s} {entry.description}")
        return 0
    if args.command == "dataset":
        _generate_dataset(args.out, args.per_class, args.snrs, args.seed)
        return 0
    if args.command == "lint":
        from repro.analysis.cli import execute as lint_execute

        return lint_execute(args)
    if args.command == "report":
        import os

        from repro.telemetry import (
            RunDirectory,
            load_telemetry,
            render_run_directory,
            render_telemetry,
        )

        if os.path.isdir(args.path):
            print(render_run_directory(RunDirectory(args.path)))
        elif args.path.endswith(".json"):
            print(render_telemetry(load_telemetry(args.path)))
        else:
            _generate_report(args.path, args.trials, args.seed)
        return 0
    if args.command == "runs":
        from repro.errors import ConfigurationError

        try:
            return _runs_command(args)
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if not args.adaptive and (
        args.rel_precision is not None or args.max_trials is not None
    ):
        print("error: --rel-precision/--max-trials require --adaptive",
              file=sys.stderr)
        return 2
    scenario = None
    if args.scenario is not None:
        from repro.errors import ConfigurationError
        from repro.experiments.sweep import load_scenario

        try:
            scenario = load_scenario(args.scenario)
            if args.experiment not in (None, scenario["experiment"]):
                raise ConfigurationError(
                    f"scenario file targets {scenario['experiment']!r} "
                    f"but the command line names {args.experiment!r}"
                )
            args.experiment = scenario["experiment"]
            get_experiment(args.experiment)
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    elif args.experiment is None:
        print("error: name an experiment id (or 'all'), or pass "
              "--scenario FILE", file=sys.stderr)
        return 2
    if args.experiment != "all":
        # Strict for a named experiment: every flag must be a declared
        # capability.  'run all' stays lenient and applies each flag
        # only where the entry declares support.
        entry = get_experiment(args.experiment)
        unsupported = _unsupported_flags(entry, args)
        if unsupported:
            declared = ", ".join(sorted(entry.capabilities)) or "none"
            print(f"error: {args.experiment} does not support "
                  f"{', '.join(unsupported)}; declared capabilities: "
                  f"{declared}", file=sys.stderr)
            return 2
    targets = experiment_ids() if args.experiment == "all" else [args.experiment]
    use_telemetry = (
        args.telemetry or args.telemetry_out is not None or args.live
    )
    run_dir = None
    if use_telemetry:
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        run_dir = _start_run_directory(args, targets)
    # No except clause: a status flag flipped on the last line of the
    # try-body tells the finalizer whether we exited cleanly, without
    # swallowing (or even naming) the in-flight exception.
    status = "error"
    try:
        for experiment_id in targets:
            _run_one(experiment_id, args.trials, args.seed,
                     save_dir=args.save, as_json=args.json,
                     workers=args.workers, chunk_size=args.chunk_size,
                     on_error=args.on_error,
                     checkpoint_dir=args.checkpoint_dir,
                     resume=args.resume, run_dir=run_dir,
                     adaptive=args.adaptive,
                     rel_precision=args.rel_precision,
                     max_trials=args.max_trials,
                     scenario=scenario)
        status = "ok"
    finally:
        if use_telemetry:
            _finish_telemetry(args, targets, run=run_dir, status=status)
    return 0


if __name__ == "__main__":
    sys.exit(main())
