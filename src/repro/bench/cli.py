"""Command-line experiment runner: ``python -m repro.bench <command>``.

A figure command (``fig5a`` ... ``fig10b``, ``serve``, ``cluster``) runs
that figure's sweep cells in-process — the same cells, params and
payloads the sweep records — and prints them with EXPERIMENTS.md's
section renderer.  ``--threads`` / ``--workloads`` pick cells from the
figure's grid.  ``list`` shows what is available.

Beyond the single-figure commands:

* ``sweep`` — run every figure cell through the multiprocess orchestrator
  (:mod:`repro.bench.sweep`) into a resumable run manifest;
* ``report`` — regenerate EXPERIMENTS.md from a sweep manifest, or with
  ``--check`` verify the committed doc matches the regeneration.

Exit codes: 0 success; 1 a sweep cell failed / a state digest mismatched
the manifest / ``report --check`` found drift; 2 bad arguments (including
an option that does not apply to the command) or unreadable inputs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple


def parse_fault_spec(spec: str):
    """Parse a ``--faults`` SPEC string into ``(seed, FaultSpec)``.

    Keys: ``seed`` (plan seed, default 42), ``error``/``latency``/``torn``
    (rates), ``spike`` (latency spike cycles), ``max`` (per-device cap).
    """
    from repro.fault.plan import DEFAULT_LATENCY_SPIKE_CYCLES, FaultSpec

    seed = 42
    kwargs = {
        "error_rate": 0.0,
        "latency_rate": 0.0,
        "torn_rate": 0.0,
        "latency_spike_cycles": DEFAULT_LATENCY_SPIKE_CYCLES,
        "max_faults_per_device": None,
    }
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"--faults item {item!r} is not key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "seed":
            seed = int(value)
        elif key == "error":
            kwargs["error_rate"] = float(value)
        elif key == "latency":
            kwargs["latency_rate"] = float(value)
        elif key == "torn":
            kwargs["torn_rate"] = float(value)
        elif key == "spike":
            kwargs["latency_spike_cycles"] = float(value)
        elif key == "max":
            kwargs["max_faults_per_device"] = int(value)
        else:
            raise ValueError(f"unknown --faults key {key!r}")
    return seed, FaultSpec(**kwargs)


def figure_names() -> List[str]:
    """The figure commands: every figure name of the sweep grid, in order."""
    from repro.bench.sweep import enumerate_cells

    return list(dict.fromkeys(cell["figure"] for cell in enumerate_cells()))


def select_cells(
    figure: str,
    threads: Optional[List[int]] = None,
    workloads: Optional[List[str]] = None,
) -> List[Dict]:
    """``figure``'s figure-scale sweep cells, narrowed by the CLI filters.

    ``threads`` keeps cells whose ``num_threads`` is listed, ``workloads``
    those whose ``workload`` is.  A filter that would select nothing
    raises ``ValueError`` naming the valid values: a figure without that
    axis (the figures that have it), or a value off the figure's grid.
    """
    from repro.bench.sweep import enumerate_cells

    grid = enumerate_cells()
    cells = [cell for cell in grid if cell["figure"] == figure]
    if not cells:
        known = ", ".join(dict.fromkeys(cell["figure"] for cell in grid))
        raise ValueError(f"unknown figure {figure!r} (figures: {known})")
    for option, key, values in (
        ("--threads", "num_threads", threads),
        ("--workloads", "workload", workloads),
    ):
        if values is None:
            continue
        axis = sorted({cell["params"][key] for cell in cells if key in cell["params"]})
        if not axis:
            having = dict.fromkeys(c["figure"] for c in grid if key in c["params"])
            raise ValueError(
                f"{figure} has no {option} axis; {option} applies to: "
                + ", ".join(having)
            )
        off_grid = [value for value in values if value not in axis]
        if off_grid:
            raise ValueError(
                f"{option} {' '.join(map(str, off_grid))} not in {figure}'s grid "
                f"(valid: {' '.join(map(str, axis))})"
            )
        cells = [cell for cell in cells if cell["params"][key] in values]
    return cells


def figure_payloads(cells: List[Dict]) -> Dict[str, dict]:
    """Run ``cells`` in-process, each hermetically; cell id -> payload.

    Cells run through :func:`repro.bench.sweep.run_cell` under whatever
    tracing, metrics and fault plan the caller installed, so a figure
    command computes exactly the payloads the sweep records.
    """
    from repro.bench.sweep import run_cell

    return {cell["cell_id"]: run_cell(cell)["payload"] for cell in cells}


EPILOG = """\
examples:
  python -m repro.bench list
  python -m repro.bench fig8a --trace trace.json --metrics
  python -m repro.bench fig10b --threads 1 8 32
  python -m repro.bench fig9 --workloads A C
  python -m repro.bench fig8c --faults "seed=42,error=0.01,latency=0.02"
  python -m repro.bench sweep --workers 4 --resume
  python -m repro.bench sweep --figures fig10 --scale bench --manifest /tmp/m.jsonl
  python -m repro.bench sweep --verify          # re-run cells, exit 1 on drift
  python -m repro.bench report                  # regenerate EXPERIMENTS.md
  python -m repro.bench report --check          # fail (exit 1) on doc drift

a figure command runs that figure's figure-scale sweep cells, each
hermetically, and prints its EXPERIMENTS.md section; --threads and
--workloads pick cells from the figure's grid (exit 2 if they select
nothing).  Observability and fault flags apply to the figure commands
only: a sweep's record is its manifest, and a fault plan is
process-global state that would make a sweep's digests depend on which
worker ran a cell.  An option given to a command it does not apply to
exits 2.
"""


#: The commands that are not figures.
COMMANDS = ("list", "sweep", "report")

#: How an option group names every figure command at once.
FIGURES = "the figure commands"


def _option_group(parser, title: str, commands: Tuple[str, ...]):
    """Add argument group ``title``; returns its ``add_argument``.

    Each option added through it is recorded in ``parser.serves`` as
    ``(action, commands)``: the commands (``FIGURES`` for every figure
    command) that option applies to.
    """
    group = parser.add_argument_group(title)

    def add_argument(*flags, **kwargs):
        action = group.add_argument(*flags, **kwargs)
        parser.serves.append((action, commands))
        return action

    return add_argument


def misapplied_option(parser, args) -> Optional[str]:
    """The error for an option set on a command it does not serve.

    An option counts as set when its value differs from its parser
    default.  Returns ``None`` when every set option serves the command.
    """
    command = args.experiment if args.experiment in COMMANDS else FIGURES
    for action, commands in parser.serves:
        if command not in commands and getattr(args, action.dest) != action.default:
            return (
                f"{action.option_strings[-1]} does not apply to {args.experiment}; "
                f"it applies to: {', '.join(commands)}"
            )
    return None


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (figures plus sweep/report commands)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate figures of 'Memory-Mapped I/O on Steroids'.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.serves = []
    parser.add_argument(
        "experiment",
        choices=figure_names() + list(COMMANDS),
        help="figure to regenerate, 'list', 'sweep' (parallel paper sweep), "
        "or 'report' (EXPERIMENTS.md regeneration)",
    )
    figure = _option_group(parser, "figure options", (FIGURES,))
    figure(
        "--threads",
        type=int,
        nargs="+",
        default=None,
        help="run only the figure's cells with these thread counts "
        "(values from the figure's grid)",
    )
    figure(
        "--workloads",
        type=str,
        nargs="+",
        default=None,
        help="YCSB workloads for fig9 (default: all of A-F)",
    )
    obsgroup = _option_group(parser, "observability and faults", (FIGURES,))
    obsgroup(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a cycle trace and write Chrome trace-event JSON to PATH",
    )
    obsgroup(
        "--faults",
        metavar="SPEC",
        default=None,
        help=(
            "inject deterministic device faults, e.g. "
            "'seed=42,error=0.01,latency=0.02,torn=0.005,spike=240000,max=100'"
        ),
    )
    obsgroup(
        "--metrics",
        action="store_true",
        help="collect counters/histograms and print a metrics table",
    )
    sweep = _option_group(parser, "sweep options", ("sweep",))
    sweep(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sweep (1 = serial in-process; default 1)",
    )
    sweep(
        "--figures",
        nargs="+",
        metavar="FIG",
        default=None,
        help="restrict the sweep to figures matching these prefixes "
        "(e.g. 'fig10' or 'fig5b fig9')",
    )
    sweep(
        "--scale",
        choices=["figure", "bench"],
        default="figure",
        help="cell sizing: 'figure' = paper grid (default), 'bench' = "
        "shrunk grid for tests/CI",
    )
    sweep(
        "--resume",
        action="store_true",
        help="skip cells already complete in the manifest (same config digest)",
    )
    sweep(
        "--verify",
        action="store_true",
        help="re-run manifest-complete cells and fail on state-digest mismatch",
    )
    shared = _option_group(parser, "sweep/report shared options", ("sweep", "report"))
    shared(
        "--manifest",
        metavar="PATH",
        default=None,
        help="run-manifest path (default: benchmarks/MANIFEST_sweep.jsonl)",
    )
    report = _option_group(parser, "report options", ("report",))
    report(
        "--output",
        metavar="PATH",
        default="EXPERIMENTS.md",
        help="document to write, or to diff against with --check "
        "(default: %(default)s)",
    )
    report(
        "--check",
        action="store_true",
        help="regenerate from the manifest and exit 1 if the committed "
        "document differs (nothing is written)",
    )
    return parser


def _run_sweep_command(args) -> int:
    """The ``sweep`` command body; returns the process exit code."""
    from repro.bench.sweep import DEFAULT_MANIFEST, run_sweep

    try:
        result = run_sweep(
            figures=args.figures,
            scale=args.scale,
            workers=args.workers,
            manifest_path=args.manifest or DEFAULT_MANIFEST,
            resume=args.resume,
            verify=args.verify,
            progress=print,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.failed:
        print(
            f"error: {len(result.failed)} cell(s) failed: "
            + ", ".join(sorted(result.failed)),
            file=sys.stderr,
        )
    if result.mismatched:
        print(
            f"error: {len(result.mismatched)} cell(s) mismatched a prior "
            "manifest digest (determinism violation): "
            + ", ".join(sorted(result.mismatched)),
            file=sys.stderr,
        )
    return 0 if result.ok else 1


def _run_report_command(args) -> int:
    """The ``report`` command body; returns the process exit code."""
    from repro.bench.report import check_experiments_md, write_experiments_md
    from repro.bench.sweep import DEFAULT_MANIFEST

    manifest_path = args.manifest or DEFAULT_MANIFEST
    try:
        if args.check:
            problems = check_experiments_md(args.output, manifest_path)
            if problems:
                print(
                    f"error: {args.output} differs from the regeneration "
                    f"out of {manifest_path}:",
                    file=sys.stderr,
                )
                for line in problems[:60]:
                    print(f"  {line}", file=sys.stderr)
                if len(problems) > 60:
                    print(f"  ... {len(problems) - 60} more lines", file=sys.stderr)
                print(
                    "regenerate with: python -m repro.bench report", file=sys.stderr
                )
                return 1
            print(f"{args.output} matches the regeneration from {manifest_path}")
            return 0
        write_experiments_md(args.output, manifest_path)
        print(f"wrote {args.output} from {manifest_path}")
        return 0
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: List[str] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    error = misapplied_option(parser, args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.experiment == "list":
        print("available experiments:")
        for name in figure_names():
            print(f"  {name}")
        print("orchestration: sweep, report (see --help)")
        return 0
    if args.experiment == "report":
        return _run_report_command(args)
    if args.experiment == "sweep":
        return _run_sweep_command(args)
    try:
        cells = select_cells(args.experiment, args.threads, args.workloads)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace or args.metrics:
        from repro import obs

        if args.trace:
            # Fail fast on an unwritable path instead of after the run.
            try:
                with open(args.trace, "a"):
                    pass
            except OSError as exc:
                print(f"error: cannot write trace to {args.trace}: {exc}", file=sys.stderr)
                return 2
            obs.enable_tracing()
        if args.metrics:
            # Must precede stack construction: components bind at __init__.
            obs.enable_metrics()
    fault_plan = None
    if args.faults:
        from repro.fault.plan import FaultPlan, install_plan

        try:
            seed, spec = parse_fault_spec(args.faults)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # Must precede stack construction: devices attach injectors at
        # __init__ from the installed plan.
        fault_plan = FaultPlan(seed, spec)
        install_plan(fault_plan)
    try:
        payloads = figure_payloads(cells)
    finally:
        if fault_plan is not None:
            from repro.fault.plan import clear_plan

            clear_plan()
    from repro.bench.report import render_section

    print(render_section(cells[0]["runner"], payloads))
    if fault_plan is not None:
        print(f"faults: {fault_plan.total_faults()} injected (seed {fault_plan.seed})")
        for device, counts in sorted(fault_plan.summary().items()):
            print(
                f"  {device}: {counts['ops_seen']} ops seen, "
                f"{counts['errors']} errors, {counts['latency']} latency spikes, "
                f"{counts['torn']} torn writes"
            )
    if args.trace:
        from repro import obs

        events = obs.write_trace(args.trace)
        print(f"trace: wrote {events} events to {args.trace}")
        if obs.TRACER.dropped:
            print(f"trace: ring buffer dropped {obs.TRACER.dropped} oldest spans")
    if args.metrics:
        from repro import obs
        from repro.bench.report import metrics_table

        metrics_table(obs.METRICS.snapshot()).show()
    return 0


if __name__ == "__main__":
    sys.exit(main())
