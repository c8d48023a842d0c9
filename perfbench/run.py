#!/usr/bin/env python3
"""airnoise benchmark: the user's batch job, `validate` then `report`, end to end.

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

Generates the workload's input bundles from --seed through
`synth.write_scenario`, then runs repetitions as a closed loop with one
client: one `python -m airnoise.cli` process at a time, each started after the
previous one ended. A repetition is one `validate` and one `report` process on
one bundle, and repetitions rotate through the bundles. They run for
--seconds, and there is at least one more repetition than bundles. Every
repetition's outputs are checked. The last line printed is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1), as named
in BENCHMARK.json. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CLI = ["-m", "airnoise.cli"]
RUN_LIMIT_S = 170.0  # no process may still be running this long after the start
REPORT_KEYS = {"meta", "exposure", "gini", "comparison", "rotation", "model", "shap", "validation"}


@dataclass(frozen=True)
class Workload:
    days: int
    samples_per_hour: int
    warm: bool    # set-up primes the output directory; each report re-runs into it
    bundles: int  # bundles per run, each set up once; setup_s is their median


# The Shapley work of one 2-day bundle swings by up to 40% with its seed, so
# cold and warm take their medians over 3 bundles. Dense repetitions are the
# slowest, and Shapley is a smaller share of them, so dense uses 2.
WORKLOADS = {
    # the full job from an empty output directory; gbm and Shapley dominate
    "cold": Workload(days=2, samples_per_hour=300, warm=False, bundles=3),
    # the same bundle shape with every cached stage fresh; Shapley dominates
    "warm": Workload(days=2, samples_per_hour=300, warm=True, bundles=3),
    # the real 3-second sample rate; ingest and acoustics dominate
    "dense": Workload(days=2, samples_per_hour=1200, warm=False, bundles=2),
}
# Every report runs all rounds_max = 300 boosting rounds, as both models do on
# the 31-day month with the default patience. On a 2-day bundle the default
# patience of 30 stops at a round that swings from 59 to 300 with the seed.
REPORT_CONFIG = "patience = 300\n"
# --tiny shrinks every workload to one day and 1/15 of its sample rate
TINY_DAYS = 1
TINY_RATE_DIVISOR = 15


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


@dataclass
class Child:
    """One finished `python` child process."""

    what: str
    seconds: float
    peak_rss_mb: float
    code: int
    stderr: str

    def problem(self) -> str | None:
        if self.code != 0:
            last = self.stderr.strip().splitlines()[-1:] or [""]
            return f"{self.what} exited {self.code}: {last[0]}"
        if "Traceback (most recent call last)" in self.stderr:
            return f"{self.what} printed a traceback"
        return None


class Runner:
    """Starts one child at a time and reaps it with its own rusage."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, what: str, args: list[str], log: Path) -> Child:
        log.parent.mkdir(parents=True, exist_ok=True)
        err_path = log.with_suffix(".err")
        with open(log.with_suffix(".out"), "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, max(self.deadline - start, 0.001))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return Child(what, seconds, usage.ru_maxrss / 1024, proc.returncode, stderr)


def cli_args(command: str, bundle: Path, out: Path, seed: int) -> list[str]:
    """Arguments of one `airnoise` command; every report reads report.cfg."""
    args = [command, "--in", str(bundle), "--out", str(out)]
    if command == "report":
        args += ["--seed", str(seed), "--config", str(bundle.parent / "report.cfg")]
    return args


def tree_hashes(directory: Path) -> dict[str, str]:
    """Relative file name -> sha256 for every file under ``directory``."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def check_report(path: Path, seed: int) -> str | None:
    """None if report.json parses, has the 8 documented keys and only finite numbers."""
    def reject(token):
        raise ValueError(f"non-finite number {token}")

    try:
        doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    except (OSError, ValueError) as exc:
        return f"report.json: {exc}"
    if not isinstance(doc, dict) or set(doc) != REPORT_KEYS:
        return f"report.json top-level keys are not {sorted(REPORT_KEYS)}"
    meta = doc["meta"] if isinstance(doc["meta"], dict) else {}
    if meta.get("seed") != seed:
        return f"report.json seed {meta.get('seed')} is not {seed}"
    return None


class Expected:
    """Artifact hashes that every later run of the same step must reproduce."""

    def __init__(self):
        self.hashes: dict[str, dict[str, str]] = {}

    def check(self, step: str, hashes: dict[str, str]) -> str | None:
        first = self.hashes.setdefault(step, hashes)
        if hashes == first:
            return None
        differ = sorted(k for k in first.keys() | hashes.keys() if first.get(k) != hashes.get(k))
        return f"{step} artifacts differ from the first run: {', '.join(differ[:5])}"


@dataclass
class Bundle:
    """One generated input bundle: base/in, base/report.cfg and base/out."""

    base: Path
    seed: int
    seconds: float        # the whole set-up
    synth_seconds: float
    spl_rows: int
    flights: int
    problems: list[str]


def set_up(workload: Workload, config, runner: Runner, base: Path, expected: Expected) -> Bundle:
    """Write the bundle for ``config`` to base/in; for a warm workload also prime base/out."""
    from airnoise import synth

    shutil.rmtree(base, ignore_errors=True)
    start = perf_counter()
    bundle, _ = synth.write_scenario(config, base / "in")
    synth_seconds = perf_counter() - start
    (base / "report.cfg").write_text(REPORT_CONFIG, encoding="utf-8")
    problems = []
    if workload.warm:
        args = [*CLI, *cli_args("report", base / "in", base / "out", config.seed)]
        prime = runner.run("priming report", args, base / "log" / "prime")
        problems += [prime.problem(), check_report(base / "out" / "report.json", config.seed),
                     expected.check(f"{base.name}/report", tree_hashes(base / "out"))]
    seconds = perf_counter() - start
    return Bundle(base, config.seed, seconds, synth_seconds, len(bundle.spl), len(bundle.flights),
                  [p for p in problems if p])


@dataclass
class Pass:
    """One `validate` plus one `report` process over a bundle."""

    validate: Child
    report: Child
    problems: list[str]


def run_pass(runner: Runner, bundle: Bundle, out: Path, tag: str, expected: Expected,
             fresh: bool, spans_dir: Path | None = None) -> Pass:
    """Run validate, then report into ``out`` (emptied first if ``fresh``), and check both.

    With ``spans_dir`` both commands run under tracer.py, which writes
    ``<spans_dir>/<tag>-<command>.json``.
    """
    base = bundle.base
    children = []
    for command, dest in (("validate", base / f"validate-{tag}"), ("report", out)):
        if command == "validate" or fresh:
            shutil.rmtree(dest, ignore_errors=True)
        args = cli_args(command, base / "in", dest, bundle.seed)
        if spans_dir is None:
            args = [*CLI, *args]
        else:
            spans_dir.mkdir(parents=True, exist_ok=True)
            args = [str(HERE / "tracer.py"), str(spans_dir / f"{tag}-{command}.json"), f"{tag}-{command}", "--", *args]
        children.append(runner.run(f"{command} ({tag})", args, base / "log" / f"{tag}-{command}"))
    validate, report = children
    problems = [validate.problem(), report.problem(), check_report(out / "report.json", bundle.seed),
                expected.check(f"{base.name}/validate", tree_hashes(base / f"validate-{tag}")),
                expected.check(f"{base.name}/report", tree_hashes(out))]
    return Pass(validate, report, [p for p in problems if p])


@dataclass
class Outcome:
    """What one run found: metric values, failures, and the bundles it used."""

    values: dict[str, float]
    notes: dict[str, str]   # metric name -> how the value was taken
    attempted: int
    failed: int
    problems: list[str]
    bundles: list[Bundle]
    expected: Expected
    detail: dict            # raw samples or spans, for the results file


def bundle_config(config, seed: int, index: int):
    """Scenario of the run's ``index``-th bundle; seeds 100*seed + index never collide."""
    return replace(config, seed=100 * seed + index)


def measure(workload: Workload, config, runner: Runner, work: Path, seed: int, seconds: float) -> Outcome:
    """Untraced run: set up every bundle, then repeat passes for ``seconds``.

    Repetitions rotate through the bundles. There is one more repetition than
    bundles at least, so the first bundle's artifacts are always compared
    between two repetitions.
    """
    expected = Expected()
    bundles = [set_up(workload, bundle_config(config, seed, i), runner, work / f"bundle{i}", expected)
               for i in range(workload.bundles)]
    problems = [p for b in bundles for p in b.problems]

    passes: list[Pass] = []
    start = perf_counter()
    while len(passes) <= len(bundles) or perf_counter() - start < seconds:
        if passes:
            last = passes[-1].validate.seconds + passes[-1].report.seconds
            if perf_counter() + 1.5 * last > runner.deadline:
                break
        bundle = bundles[len(passes) % len(bundles)]
        passes.append(run_pass(runner, bundle, bundle.base / "out", f"rep{len(passes)}", expected,
                               fresh=not workload.warm))

    problems += [f"repetition {i}: {msg}" for i, p in enumerate(passes) for msg in p.problems]
    samples = {
        "setup_s": [b.seconds for b in bundles],
        "report_s": [p.report.seconds for p in passes],
        "report_peak_rss_mb": [p.report.peak_rss_mb for p in passes],
        "validate_s": [p.validate.seconds for p in passes],
        "validate_peak_rss_mb": [p.validate.peak_rss_mb for p in passes],
    }
    return Outcome(
        values={k: statistics.median(v) for k, v in samples.items()},
        notes={k: f"median of {len(v)}" for k, v in samples.items()},
        attempted=len(passes),
        failed=sum(1 for p in passes if p.problems),
        problems=problems, bundles=bundles, expected=expected,
        detail={"samples": samples},
    )


def trace(workload: Workload, config, runner: Runner, work: Path, seed: int, counted: list[str]) -> Outcome:
    """Traced run: one bundle, one untraced reference pass, two traced passes.

    The metrics come from the first traced pass. The metrics named in
    ``counted`` are work counts and must be equal in both traced passes.
    """
    import layers
    from airnoise import cli

    expected = Expected()
    bundle = set_up(workload, bundle_config(config, seed, 0), runner, work / "bundle0", expected)
    reference = run_pass(runner, bundle, bundle.base / "out", "untraced", expected, fresh=not workload.warm)
    problems = bundle.problems + reference.problems

    passes, spans = [], {}
    for tag in ("traced1", "traced2"):
        out = bundle.base / ("out" if workload.warm else f"out-{tag}")
        traced = run_pass(runner, bundle, out, tag, expected, fresh=not workload.warm, spans_dir=work / "spans")
        problems += traced.problems
        if traced.problems:
            continue
        validate_spans, report_spans = (
            json.loads((work / "spans" / f"{tag}-{command}.json").read_text(encoding="utf-8"))
            for command in ("validate", "report"))
        metrics = layers.derive(validate_spans, report_spans, out, list(cli.MODEL_TARGETS))
        metrics["trace.report_s"] = traced.report.seconds
        metrics["trace.overhead_s"] = traced.report.seconds - reference.report.seconds
        metrics["trace.coverage_ratio"] = layers.coverage(report_spans)
        metrics["synth.write_scenario_s"] = bundle.synth_seconds
        metrics["synth.calls"] = 1
        metrics["synth.errors"] = 0
        passes.append(metrics)
        spans[tag] = validate_spans + report_spans

    if len(passes) == 2:
        differ = [k for k in counted if passes[0][k] != passes[1][k]]
        if differ:
            problems.append(f"work counts differ between two traced passes: {', '.join(differ)}")
    return Outcome(
        values=passes[0] if passes else {},
        notes={},
        attempted=2,
        failed=2 - len(passes),
        problems=problems, bundles=[bundle], expected=expected,
        detail={"passes": passes, "spans": spans},
    )


def input_sizes(bundle: Bundle) -> dict | None:
    out = bundle.base / "out"
    if not (out / "report.json").is_file():
        return None

    def data_rows(path: Path) -> int:
        with open(path, "rb") as fh:
            return sum(1 for _ in fh) - 1

    sizes = {
        "scenario_seed": bundle.seed,
        "spl_rows": bundle.spl_rows,
        "spl_bytes": (bundle.base / "in" / "spl.csv").stat().st_size,
        "flights": bundle.flights,
        "feature_rows": data_rows(out / "features.csv"),
    }
    for path in sorted(out.glob("shap_values_*.csv")):
        sizes[f"shap_rows.{path.stem.removeprefix('shap_values_')}"] = data_rows(path)
    return sizes


def environment() -> dict:
    import numpy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text(encoding="utf-8").strip()
        if commit.startswith("ref: "):
            ref_file = ROOT / ".git" / commit[5:]
            if ref_file.is_file():
                commit = ref_file.read_text(encoding="utf-8").strip()
    source = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        source.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true", help="one-day scenarios, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "airnoise" / "__init__.py").is_file():
        print(f"error: no airnoise sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import airnoise
    from airnoise import synth

    if not Path(airnoise.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported airnoise from {airnoise.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    days, rate = workload.days, workload.samples_per_hour
    if args.tiny:
        days, rate = TINY_DAYS, rate // TINY_RATE_DIVISOR
    config = synth.ScenarioConfig(days=days, samples_per_hour=rate)
    work = WORK / "work" / args.workload
    runner = Runner(perf_counter() + RUN_LIMIT_S)
    print(f"workload {args.workload} seed {args.seed}: ScenarioConfig(days={days}, "
          f"samples_per_hour={rate}), trace {args.trace}")

    if args.trace:
        counted = [k for k, u in units.items() if u != "s" and not k.startswith("trace.")]
        outcome = trace(workload, config, runner, work, args.seed, counted)
    else:
        outcome = measure(workload, config, runner, work, args.seed, args.seconds)

    for name, unit in units.items():
        if name in outcome.values:
            note = f" ({outcome.notes[name]})" if name in outcome.notes else ""
            print(f"metric {name} {outcome.values[name]:.6g} {unit}{note}")
    if not args.trace:
        print(f"metric failed_ratio {outcome.failed / outcome.attempted:.6g} ratio "
              f"({outcome.failed} of {outcome.attempted})")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scenario": {"days": days, "samples_per_hour": rate, "report_config": REPORT_CONFIG},
        "inputs": [input_sizes(b) for b in outcome.bundles],
        "environment": environment(),
        "sha256": outcome.expected.hashes,
        "problems": outcome.problems,
        **outcome.detail,
    }
    for sizes in record["inputs"]:
        print("inputs " + json.dumps(sizes, sort_keys=True))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for step, hashes in sorted(outcome.expected.hashes.items()):
        for name, digest in hashes.items():
            print(f"sha256 {digest} {step}/{name}")
    for msg in outcome.problems:
        print(f"problem: {msg}", file=sys.stderr)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    metrics = {k: {"value": outcome.values[k], "unit": u} for k, u in units.items() if k in outcome.values}
    correct = not outcome.problems and outcome.failed == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
