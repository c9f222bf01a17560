"""End-to-end benchmark of mutreduce through its real command line.

    python3 perfbench/run.py [--workload ge-paper|kill-large|report-paper|all]
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--record-golden]

Runs from a source checkout: the program is imported from ``src/``,
nothing is installed or built. For one workload a run

1. generates the inputs from ``--seed`` (untimed) under ``.perfbench_work/``;
2. untraced: starts three fresh interpreters that each import
   ``mutreduce.cli``, load the workload's cache and build its index, and
   takes the median as ``setup_s``;
3. runs the workload's commands in a fresh interpreter through
   ``mutreduce.cli.main`` with ``--jobs 1``, one iteration after another
   (each in a new interpreter) as long as the command time spent plus one
   more iteration stays within ``--seconds``, at least once, and reports
   medians over iterations;
4. reports every time at the reference speed of the probe in probe.py,
   which runs inside each timed interpreter, so that the host's drift in
   speed cancels; wall-clock medians are printed beside them;
5. checks every output: invariants at any seed, the committed SHA-256
   digests at the golden seed;
6. traced (``--trace 1``): skips the setup samples, runs one untraced
   iteration and then one with spans around the calls into each layer, and
   reports per-layer counts and self times; its output digests must equal
   the untraced ones.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` counts checked output files plus commands run; ``failed``
counts failing files plus commands that exited non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outputs
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 1
SETUP_SAMPLES = 3
# A run must end well inside three minutes; iterations stop early rather
# than overrun this.
RUN_BUDGET_S = 165.0

# Every end-to-end metric, printed where the workload has it. Only those
# every workload has (setup_s, wall_s, peak_rss_mb) are listed in
# BENCHMARK.json, which names the metrics of the JSON result line. Times
# are at the probe's reference speed; the *_clock_s lines give the same
# medians on the wall clock, for comparison only.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "train_s": "s", "baselines_s": "s",
             "report_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB",
             "setup_clock_s": "s", "wall_clock_s": "s"}


class BenchError(RuntimeError):
    pass


def _child(args: list[str], result: Path, log: Path, deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    # A fixed hash seed keeps dict and set layouts, and so timings, the same
    # from one fresh interpreter to the next.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    with open(log, "w", encoding="utf-8") as out:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), *args, str(result)],
                cwd=log.parent, stdout=out, stderr=subprocess.STDOUT, env=env,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args[0]} timed out; see {log}") from None
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"child {args[0]} exited with {proc.returncode}; see {log}")
    return json.loads(result.read_text(encoding="utf-8"))


def _iteration(workload, out_dir: Path, trace: bool, golden, deadline: float) -> dict:
    """Run one pass of the workload's commands and check what they wrote."""
    out_dir.mkdir(parents=True)
    plan = workload.iteration(out_dir)
    spec = {"commands": plan.commands, "trace": trace,
            "spans": str(out_dir / "spans.json")}
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    started = time.monotonic()
    result = _child(["run", str(spec_path)], out_dir / "result.json",
                    out_dir / "child.log", deadline)
    result["elapsed_s"] = time.monotonic() - started
    if not Path(result["program"]).is_relative_to(SRC):
        raise BenchError(f"child imported mutreduce from {result['program']}, not {SRC}")
    digests, failed = outputs.check_outputs(out_dir, plan.checkers, golden)
    for command in result["commands"]:
        if command["exit_code"] != 0:
            failed.append(f"command {command['name']} exited {command['exit_code']}")
    result.update(digests=digests, failed=failed,
                  checked=len(plan.checkers) + len(plan.commands),
                  wall_s=sum(c["wall_s"] for c in result["commands"]),
                  ref_s=sum(c["ref_s"] for c in result["commands"]))
    evaluations = []
    for runlog in plan.runlogs:
        rows = outputs.read_csv(out_dir / runlog)[1] if (out_dir / runlog).is_file() else []
        if rows and rows[-1][1].isdigit():  # else the run-log check has failed
            evaluations.append(int(rows[-1][1]))
    if plan.runlogs and len(evaluations) == len(plan.runlogs):
        train_s = sum(c["ref_s"] for c in result["commands"] if c["name"] == "train")
        result["evals_per_s"] = sum(evaluations) / train_s
    return result


def _golden_for(name: str, seed: int, env: dict) -> tuple[dict | None, str]:
    if not GOLDEN.is_file():
        return None, "no golden digests committed; invariant checks only"
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if seed != golden["seed"]:
        return None, (f"no golden digests at seed {seed} (recorded at seed "
                      f"{golden['seed']}); invariant and replay checks only")
    recorded = golden["environment"]
    differs = [f"{key} {env[key]} (golden {recorded[key]})"
               for key in ("numpy", "backend") if env[key] != recorded[key]]
    if differs:
        return None, ("digest comparison skipped: byte identity rests on numpy "
                      "Generator streams and this run has " + ", ".join(differs))
    return golden["digests"][name], f"compared with golden digests (seed {seed})"


def bench_workload(name: str, seed: int, seconds: float, trace: bool,
                   record: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.Workload(name, seed, work / "inputs")
    env = _child(["inputs", name, str(seed), str(workload.inputs_dir)],
                 work / "inputs.json", work / "inputs.log", deadline)
    golden, golden_note = (None, "recording golden digests") if record else \
        _golden_for(name, seed, env)

    setups = []
    if not trace:
        for k in range(SETUP_SAMPLES):
            setups.append(_child(["setup", str(workload.setup_cache)],
                                 work / f"setup{k}.json", work / f"setup{k}.log",
                                 deadline))

    iterations: list[dict] = []
    measured = 0.0
    while True:
        iterations.append(_iteration(workload, work / f"run{len(iterations)}",
                                     False, golden, deadline))
        measured += iterations[-1]["wall_s"]
        # A traced run needs one untraced iteration, as the reference for
        # trace.overhead_s.
        typical = statistics.mean(it["elapsed_s"] for it in iterations)
        if (trace or measured + measured / len(iterations) > seconds
                or time.monotonic() + typical > deadline):
            break

    failed = [problem for it in iterations for problem in it["failed"]]
    checked = sum(it["checked"] for it in iterations)
    for it in iterations[1:]:
        if it["digests"] != iterations[0]["digests"]:
            failed.append("iterations of one run wrote different bytes")

    def median(values):
        return statistics.median(values) if values else None

    def command_s(it, command):
        times = [c["ref_s"] for c in it["commands"] if c["name"] == command]
        return sum(times) if times else None

    metrics = {
        "setup_s": median([s["ref_s"] for s in setups]),
        "wall_s": median([it["ref_s"] for it in iterations]),
        "peak_rss_mb": median([it["peak_rss_mb"] for it in iterations]),
        "setup_clock_s": median([s["wall_s"] for s in setups]),
        "wall_clock_s": median([it["wall_s"] for it in iterations]),
        "evals_per_s": median([it["evals_per_s"] for it in iterations
                               if "evals_per_s" in it]),
    }
    for command in ("train", "baselines", "report"):
        metrics[f"{command}_s"] = median(
            [t for it in iterations if (t := command_s(it, command)) is not None])

    layers = None
    if trace:
        traced = _iteration(workload, work / "traced", True, golden, deadline)
        checked += traced["checked"]
        failed += traced["failed"]
        if traced["digests"] != iterations[0]["digests"]:
            failed.append("the traced run wrote different bytes than the untraced run")
        recorded = json.loads((work / "traced" / "spans.json").read_text(encoding="utf-8"))
        metrics.update(spans.layer_metrics(recorded))
        metrics["trace.overhead_s"] = traced["ref_s"] - metrics["wall_s"]
        layers = spans.layer_self_times(recorded)

    return {"name": name, "seed": seed, "env": env, "iterations": len(iterations),
            "setup_samples": len(setups), "golden_note": golden_note,
            "metrics": metrics, "layers": layers, "checked": checked,
            "failed": failed, "digests": iterations[0]["digests"]}


def _print_report(report: dict, trace: bool) -> None:
    metrics, env = report["metrics"], report["env"]
    print(f"workload {report['name']}, seed {report['seed']}: "
          f"{report['iterations']} iteration(s), {report['setup_samples']} "
          f"setup sample(s)")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"kernel backend {env['backend']}, nproc {env['nproc']}")
    print(f"  outputs: {report['golden_note']}")
    if not trace:
        for name, unit in E2E_UNITS.items():
            if metrics[name] is not None:
                print(f"  {name:<16} {metrics[name]:12.4f} {unit}")
    print(f"  {'outputs_failed':<16} {len(report['failed']):12d} count "
          f"(of outputs_checked {report['checked']})")
    for problem in report["failed"]:
        print(f"    FAILED {problem}")
    if report["layers"] is not None:
        for name, value in metrics.items():
            if "." in name:
                print(f"  {name:<28} {value:14.4f}")
        total = sum(report["layers"].values())
        print("  self time by layer (traced iteration):")
        for layer, own in sorted(report["layers"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<11} {own:9.3f} s {100 * own / total:6.1f}%")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="write perfbench/golden.json from this run's outputs "
                             "(all workloads, untraced)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record_golden and (args.workload != "all" or args.trace):
        parser.error("--record-golden needs --workload all --trace 0")
    if not (SRC / "mutreduce" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'mutreduce'}; run from a "
              "mutreduce checkout", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            reports.append(bench_workload(name, args.seed, args.seconds,
                                          bool(args.trace), args.record_golden))
            _print_report(reports[-1], bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.record_golden:
        GOLDEN.write_text(json.dumps({
            "seed": args.seed,
            "environment": {key: reports[0]["env"][key]
                            for key in ("python", "numpy", "backend")},
            "digests": {r["name"]: r["digests"] for r in reports},
        }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = declared["per_layer" if args.trace else "end_to_end"]
    prefix = len(reports) > 1
    metrics = {(f"{r['name']}.{m['name']}" if prefix else m["name"]):
               {"value": r["metrics"][m["name"]], "unit": m["unit"]}
               for r in reports for m in listed}
    failed = sum(len(r["failed"]) for r in reports)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["checked"] for r in reports),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
