"""End-to-end benchmark of one archmeta regeneration cycle.

    python3 perfbench/run.py --workload wide --seed 3 --seconds 15 --trace 0

Run from the root of a source checkout. One cycle is the paper's workflow,
driven through `archmeta.cli.main(argv)` in this process: `lift` the
workload's diagram artifacts, `validate` and `trace` the regenerated model,
`assemble` the workflow-B td-to-bd prompt around its context block, and
`score` it against the reference and the baseline. One client runs cycles
back to back (a closed loop) for `--seconds`, after one untimed warm-up cycle.

Every command output is checked: exit code, no traceback, values against facts
known independently of the program (the desk fixture's hand-derived numbers,
or the generator's answer file), and stdout byte-identical to the warm-up
cycle's. The last stdout line is one JSON object; see perfbench/README.md for
the metrics. `--trace 1` reports the per-layer figures instead, from a second
loop with spans recorded around every layer's public functions.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DESK = ROOT / "tests" / "fixtures" / "desk"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("desk", "wide", "deep")
STEPS = ("lift", "validate", "trace", "assemble", "score")
PURPOSE = "service-structure"
PURPOSE_VIEWS = ("SystemContainer", "ComponentView")
SECTIONS = ("INSTRUCTIONS", "CANONICAL CONTEXT", "DIAGRAMS", "INVARIANTS", "UNCERTAINTY")
METRIC_ROWS = {"Completeness (C)": "C", "Semantic Fidelity (SF)": "SF", "Consistency (K)": "K",
               "Traceability Coverage (TC)": "TC", "Machine Readability (MR)": "MR",
               "Constraint Effectiveness (LCE)": "LCE", "Pattern Coverage (CPC)": "CPC"}

SETUP_SPAWNS = 15         # fresh `import archmeta.cli` processes per run
CLI_SPAWNS = {"desk": 15, "wide": 9, "deep": 9}
MIN_CYCLES = 20           # so cycle_tail_s has ten cycles beyond it ...
MAX_WINDOW = 1.5          # ... unless that would stretch the window further
SPAWN_TIMEOUT = 60        # seconds; a fresh process takes well under one
MIN_TRACED_CYCLES = 3     # traced cycles per --trace 1 run

# The desk fixture's one deliberately broken artifact in `artifacts/` (see
# tests/support/desk.py); lift takes the other 49.
DESK_BROKEN = ("c4-07.puml",)
# Each c4 artifact renders a Container, a Component and a DataStore as a
# SystemContainer view, which shows the Container and the DataStore; each seq
# artifact renders Component -> Event -> Component as an EventDrivenView,
# which shows the two Components.
DESK_ENTITIES_PER_ARTIFACT = 2


class BenchError(Exception):
    """The checkout cannot run this benchmark."""


# ---------------------------------------------------------------- commands


@dataclass
class Call:
    step: str
    argv: list[str]
    code: int                               # expected exit code
    check: Callable[[str], str | None]      # first-cycle check of stdout
    output: Path | None = None              # file the command writes


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    seconds: float
    written: str | None = None


def run_call(cli, call: Call) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(call.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call, reported, not fatal to the run
        code = None
        err.write(traceback.format_exc())
    seconds = perf_counter() - start
    written = call.output.read_text("utf-8") if call.output and call.output.is_file() else None
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, written)


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{label}: {problem}")


def judge(call: Call, got: Outcome, first: Outcome | None = None,
          first_problem: str | None = None) -> str | None:
    """Why this call failed, or None. Without `first` the output gets the full
    check; otherwise it must repeat the warm-up run `first` byte for byte, and
    inherits that run's verdict `first_problem`."""
    if got.code != call.code:
        return f"exit {got.code}, expected {call.code}: {got.stderr.strip()[-300:]}"
    if "Traceback" in got.stderr:
        return "traceback on stderr"
    if first is None:
        try:
            problem = call.check(got.stdout)
        except (ValueError, LookupError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is None and call.output is not None and got.written is None:
            problem = f"{call.output.name} not written"
        return problem
    if got.stdout != first.stdout:
        return "stdout differs from the warm-up cycle"
    if got.written != first.written:
        return f"{call.output.name} differs from the warm-up cycle"
    return first_problem


# ---------------------------------------------------------------- checks


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


def check_lift(expected_entities: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        got = len(json.loads(stdout)["entities"])
        return None if got == expected_entities else f"{got} entities, expected {expected_entities}"
    return check


def check_validate(violated: dict[str, list[str] | None], total: int) -> Callable[[str], str | None]:
    """violated: constraint id -> exact instance ids, or None to skip instances."""
    def check(stdout: str) -> str | None:
        lines = stdout.rstrip("\n").split("\n")
        found: dict[str, list[str]] = {}
        for line in lines[:-1]:
            cid, _, rest = line.partition(": ")
            if rest.startswith("violated ("):
                found[cid] = rest[len("violated ("):-1].split("; ")
            elif rest != "satisfied":
                return f"unexpected line {line!r}"
        if sorted(found) != sorted(violated):
            return f"violated {sorted(found)}, expected {sorted(violated)}"
        for cid, instances in violated.items():
            if instances is not None and sorted(found[cid]) != sorted(instances):
                return f"{cid} instances {found[cid][:5]}, expected {instances[:5]}"
        tail = f"({len(violated)} of {total} violated)"
        return None if lines[-1].endswith(tail) else f"summary {lines[-1]!r}, expected {tail}"
    return check


def check_trace(filled: int, slots: int, invalid: int | None) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        last = stdout.rstrip("\n").split("\n")[-1]
        want = f"({filled}/{slots} slots; "
        if want not in last:
            return f"summary {last!r}, expected {want}"
        if invalid is not None and not last.endswith(f"; {invalid} invalid links)"):
            return f"summary {last!r}, expected {invalid} invalid links"
        return None
    return check


def check_assemble(output: Path, entities: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        if stdout != f"wrote {output}\n":
            return f"stdout {stdout[:80]!r}"
        text = output.read_text("utf-8")
        if "[INSERT" in text:
            return "unfilled template slot"
        pos = 0
        for name in SECTIONS:
            pos = text.find(f"<<<SECTION: {name}>>>", pos)
            if pos < 0:
                return f"section {name} missing or out of order"
        for view in PURPOSE_VIEWS:
            if f"/ {view} --" not in text:
                return f"view {view} missing from the context block"
        # the canonical section writes "layer_override" once per entity
        got = text.count('\n      "layer_override": ')
        return None if got == entities else f"{got} entities in context, expected {entities}"
    return check


def check_score(raw: dict[str, float], inputs: dict[str, object]) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        doc = json.loads(stdout)
        for key, want in raw.items():
            got = doc["metrics"][key]["raw"]
            if not _close(got, want):
                return f"{key} raw {got!r}, expected {want!r}"
        for path, want in inputs.items():
            node: object = doc["inputs"]
            for part in path.split("."):
                node = node[part]  # type: ignore[index]
            if node != want:
                return f"inputs.{path} = {node!r}, expected {want!r}"
        return None
    return check


def check_markdown(raw: dict[str, float]) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        seen = {}
        for line in stdout.splitlines()[2:]:
            cells = [c.strip() for c in line.strip("|").split("|")]
            seen[METRIC_ROWS.get(cells[0], cells[0])] = float(cells[1])
        for key, want in raw.items():
            if key not in seen or abs(seen[key] - want) > 5.1e-5:
                return f"{key} printed {seen.get(key)!r}, expected {want:.4f}"
        return None
    return check


# ---------------------------------------------------------------- workloads


@dataclass
class Workload:
    calls: list[Call]
    score_argv: list[str]
    score_raw: dict[str, float]
    size: str


def _score_argv(d: dict[str, Path | None]) -> list[str]:
    argv = ["score"]
    for flag in ("model", "reference", "baseline", "codebase", "rules", "artifacts", "aliases"):
        if d.get(flag) is not None:
            argv += [f"--{flag}", str(d[flag])]
    return argv


def _assemble_call(model: Path, entities: int, work: Path) -> Call:
    output = work / "prompt.txt"
    argv = ["assemble", "--process", "B", "--stage", "td-to-bd",
            "--slot", "td_and_diagrams=@context", "--context-model", str(model),
            "--purpose", PURPOSE, "--output", str(output)]
    return Call("assemble", argv, 0, check_assemble(output, entities), output)


def desk_workload(work: Path) -> Workload:
    sys.path.insert(0, str(ROOT))
    from tests.support.desk import EXPECT  # hand-derived fixture values

    art = DESK / "artifacts"
    c4 = sorted(p for p in art.glob("c4-*.puml") if p.name not in DESK_BROKEN)
    seq = sorted(art.glob("seq-*.mmd"))
    if len(c4) + len(seq) != EXPECT["artifact_parsable_b"]:
        raise BenchError("desk artifacts do not match tests/support/desk.py")
    model = DESK / "process_b.archmeta.json"
    entities = len(json.loads(model.read_text("utf-8"))["entities"])
    cos = EXPECT["group_cosines_b"]
    raw = {
        "C": EXPECT["matched_b"] / EXPECT["expected_entities"],
        "SF": sum(cos.values()) / len(cos),
        "K": 1 - len(EXPECT["violated_b"]) / EXPECT["constraints_total"],
        "TC": EXPECT["trace_filled_b"] / EXPECT["trace_slots_b"],
        "MR": EXPECT["artifact_parsable_b"] / EXPECT["artifact_total"],
        "LCE": 1 - EXPECT["delta_b"] / EXPECT["delta_a"],
        "CPC": EXPECT["patterns_kept_b"] / len(EXPECT["patterns_original"]),
    }
    for key, rounded in EXPECT["raw_b"].items():  # the README's two-place figures
        if round(raw[key], 2) != rounded:
            raise BenchError(f"desk {key}: {raw[key]} does not round to {rounded}")
    paths = {"model": model, "reference": DESK / "original.archmeta.json",
             "baseline": DESK / "process_a.archmeta.json", "codebase": DESK / "codebase",
             "rules": DESK / "rules.txt", "artifacts": art, "aliases": DESK / "aliases.txt"}
    score_inputs = {
        "C.expected_count": EXPECT["expected_entities"], "C.matched_count": EXPECT["matched_b"],
        "K.violated": len(EXPECT["violated_b"]), "K.total": EXPECT["constraints_total"],
        "TC.slots_filled": EXPECT["trace_filled_b"], "TC.slots_total": EXPECT["trace_slots_b"],
        "MR.parsable_count": EXPECT["artifact_parsable_b"],
        "LCE.drift_distance": EXPECT["delta_b"], "LCE.baseline_distance": EXPECT["delta_a"],
    }
    calls = [
        Call("lift", ["lift", "--type", "SystemContainer"] + [str(p) for p in c4], 0,
             check_lift(DESK_ENTITIES_PER_ARTIFACT * len(c4))),
        Call("lift", ["lift", "--type", "EventDrivenView"] + [str(p) for p in seq], 0,
             check_lift(DESK_ENTITIES_PER_ARTIFACT * len(seq))),
        Call("validate", ["validate", "--model", str(model)], 1,
             check_validate({cid: None for cid in EXPECT["violated_b"]},
                            EXPECT["constraints_total"])),
        Call("trace", ["trace", "--model", str(model)], 0,
             check_trace(EXPECT["trace_filled_b"], EXPECT["trace_slots_b"], None)),
        _assemble_call(model, entities, work),
        Call("score", _score_argv(paths) + ["--json"], 0, check_score(raw, score_inputs)),
    ]
    return Workload(calls, _score_argv(paths), raw,
                    f"{entities} entities, {len(c4) + len(seq)} lifted artifacts")


def generated_workload(shape: str, seed: int, work: Path) -> Workload:
    # a separate process, so generation does not count toward peak_rss_mb
    gen = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("gen.py")), "--shape", shape,
         "--seed", str(seed), "--out", str(work)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if gen.returncode != 0:
        raise BenchError(f"generator failed: {gen.stderr.strip()[-500:]}")
    answer = json.loads((work / "answer.json").read_text("utf-8"))
    model = work / "model.archmeta.json"
    paths = {"model": model, "reference": work / "reference.archmeta.json",
             "baseline": work / "baseline.archmeta.json", "codebase": work / "codebase",
             "rules": work / "rules.txt", "artifacts": work / "artifacts"}
    drift = answer["drift"]
    score_inputs = {
        "C.expected_count": answer["scan"]["expected"], "C.matched_count": answer["scan"]["matched"],
        "K.violated": len(answer["violated"]), "K.total": answer["constraints_total"],
        "TC.slots_filled": answer["trace"]["filled"], "TC.slots_total": answer["trace"]["slots"],
        "MR.parsable_count": answer["artifacts"]["parsable"],
        "MR.total_count": answer["artifacts"]["total"],
        "LCE.drift_distance": drift["model"]["distance"],
        "LCE.baseline_distance": drift["baseline"]["distance"],
        "CPC.expected": answer["patterns"]["expected"],
        "CPC.preserved": answer["patterns"]["preserved"],
    }
    calls = [Call("lift", ["lift", "--type", v["type"], str(work / v["file"])], 0,
                  check_lift(v["entities"])) for v in answer["views"]]
    calls += [
        Call("validate", ["validate", "--model", str(model)], 1,
             check_validate(answer["violated"], answer["constraints_total"])),
        Call("trace", ["trace", "--model", str(model)], 0,
             check_trace(answer["trace"]["filled"], answer["trace"]["slots"],
                         answer["trace"]["invalid"])),
        _assemble_call(model, answer["entities"]["model"], work),
        Call("score", _score_argv(paths) + ["--json"], 0, check_score(answer["raw"], score_inputs)),
    ]
    size = (f"{answer['entities']['model']} entities, {answer['dependencies']} dependencies, "
            f"containment depth {answer['containment_depth']}")
    return Workload(calls, _score_argv(paths), answer["raw"], size)


# ---------------------------------------------------------------- measuring


@dataclass
class Spawn:
    metric: str
    argv: list[str]
    check: Callable[[str], str | None] | None = None


@dataclass
class Loop:
    cycles: list[float] = field(default_factory=list)
    steps: dict[str, list[float]] = field(default_factory=lambda: {s: [] for s in STEPS})
    spawned: dict[str, list[float]] = field(default_factory=dict)
    busy: float = 0.0   # wall time of the cycles, their checks included


def warm_up(cli, wl: Workload, ledger: Ledger) -> tuple[list[Outcome], list[str | None]]:
    """One untimed cycle whose outputs get the full checks."""
    first = [run_call(cli, call) for call in wl.calls]
    problems = [judge(call, got) for call, got in zip(wl.calls, first)]
    for call, problem in zip(wl.calls, problems):
        ledger.record(call.step, problem)
    return first, problems


def run_loop(cli, wl: Workload, warm: tuple[list[Outcome], list[str | None]], ledger: Ledger,
             seconds: float, min_cycles: int, spawns: list[Spawn] = (),
             before: Callable[[int], None] | None = None,
             after: Callable[[int], None] | None = None) -> Loop:
    """Closed loop: cycle after cycle until `seconds` have passed and
    `min_cycles` have run, or `MAX_WINDOW` times `seconds` and two cycles.

    The fresh-process spawns run between cycles, spread evenly over the
    window, so that every metric samples the whole of it."""
    first, first_problems = warm
    loop = Loop()
    due = [(i + 0.5) * seconds / len(spawns) for i in range(len(spawns))]
    start = perf_counter()

    def window_over() -> bool:
        elapsed = perf_counter() - start
        done_cycles = len(loop.cycles)
        return elapsed >= seconds and (done_cycles >= min_cycles
                                       or done_cycles >= 2 and elapsed >= MAX_WINDOW * seconds)

    done = 0
    while True:
        while done < len(spawns) and (window_over() or perf_counter() - start >= due[done]):
            job = spawns[done]
            loop.spawned.setdefault(job.metric, []).append(spawn(job, ledger))
            done += 1
        if window_over():
            return loop
        index = len(loop.cycles)
        cycle_start = perf_counter()
        if before:
            before(index)
        outcomes = [run_call(cli, call) for call in wl.calls]
        if after:
            after(index)
        per_step = dict.fromkeys(STEPS, 0.0)
        for call, got, ref, ref_problem in zip(wl.calls, outcomes, first, first_problems):
            per_step[call.step] += got.seconds
            ledger.record(call.step, judge(call, got, ref, ref_problem))
        loop.cycles.append(sum(per_step.values()))
        for step, value in per_step.items():
            loop.steps[step].append(value)
        loop.busy += perf_counter() - cycle_start


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it,
    interpolated between neighbouring samples; the median when fewer than 20
    samples leave no such percentile at or above it."""
    ordered = sorted(samples)
    n = len(ordered)
    q = max(0.5, (n - 10) / n)
    pos = (n - 1) * q
    low = int(pos)
    high = min(low + 1, n - 1)
    return 100 * q, ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(job: Spawn, ledger: Ledger) -> float:
    """Run one fresh interpreter to completion; its wall time, start included."""
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable] + job.argv, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=SPAWN_TIMEOUT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        ledger.record(job.metric, f"no exit within {SPAWN_TIMEOUT} s")
        return perf_counter() - start
    seconds = perf_counter() - start
    problem = None
    if proc.returncode != 0:
        problem = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    elif "Traceback" in proc.stderr:
        problem = "traceback on stderr"
    elif job.check is not None:
        try:
            problem = job.check(proc.stdout)
        except (ValueError, LookupError) as exc:
            problem = f"unreadable output: {exc!r}"
    ledger.record(job.metric, problem)
    return seconds


def _interleave(*groups: list[Spawn]) -> list[Spawn]:
    """Merge spawn lists so each is spread evenly over the sequence."""
    keyed = [((i + 0.5) / len(g), n, job) for n, g in enumerate(groups) for i, job in enumerate(g)]
    return [job for _, _, job in sorted(keyed, key=lambda k: k[:2])]


def measure(wl: Workload, seconds: float, workload: str, ledger: Ledger) -> dict[str, tuple[float, str]]:
    import archmeta.cli as cli

    setup = Spawn("setup_s", ["-c", "import archmeta.cli"])
    spawn(setup, ledger)  # fills the bytecode cache, as any installed copy has
    cli_score = Spawn("cli_wall_s", ["-m", "archmeta.cli"] + wl.score_argv,
                      check_markdown(wl.score_raw))
    spawns = _interleave([setup] * SETUP_SPAWNS, [cli_score] * CLI_SPAWNS[workload])
    loop = run_loop(cli, wl, warm_up(cli, wl, ledger), ledger, seconds, MIN_CYCLES, spawns)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    pct, tail_value = tail(loop.cycles)
    print(f"# {workload}: {wl.size}; {len(loop.cycles)} cycles in {loop.busy:.2f} s; "
          f"cycle_tail_s is p{pct:.1f} of {len(loop.cycles)} cycles")
    metrics = {
        "setup_s": (statistics.median(loop.spawned["setup_s"]), "s"),
        "cli_wall_s": (statistics.median(loop.spawned["cli_wall_s"]), "s"),
        "cycle_p50_s": (statistics.median(loop.cycles), "s"),
        "cycle_tail_s": (tail_value, "s"),
        "cycles_per_s": (len(loop.cycles) / loop.busy, "1/s"),
    }
    for step in STEPS:
        metrics[f"{step}_p50_s"] = (statistics.median(loop.steps[step]), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def measure_layers(wl: Workload, seconds: float, trace_file: Path,
                   ledger: Ledger) -> dict[str, tuple[float, str]]:
    """Alternate untraced and traced cycles, so both sample the same window."""
    import archmeta.cli as cli
    import tracing

    rec = tracing.Recorder()
    roots: list[list] = []
    uninstall: list[Callable[[], None]] = []

    def before(index: int) -> None:
        if index % 2:
            uninstall.append(tracing.install(rec))
            rec.cycle = index
            roots.append(rec.open("cli", "cli.cycle"))

    def after(index: int) -> None:
        if index % 2:
            rec.close(roots[-1])
            uninstall.pop()()

    loop = run_loop(cli, wl, warm_up(cli, wl, ledger), ledger, seconds, 2 * MIN_TRACED_CYCLES,
                    before=before, after=after)
    rec.write_jsonl(trace_file)

    plain, traced = loop.cycles[0::2], loop.cycles[1::2]
    figures = tracing.layer_metrics(rec, len(traced))
    figures["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    layer_sum = sum(figures[f"{layer}.self_s"] for layer in tracing.LAYERS)
    root_mean = sum(r[6] - r[5] for r in roots) / len(roots)
    print(f"# layer self times sum to {layer_sum:.6f} s per traced cycle, whose spans average "
          f"{root_mean:.6f} s; {len(traced)} traced and {len(plain)} untraced cycles; "
          f"spans in {trace_file.relative_to(ROOT)}")
    return {name: (value, _unit(name)) for name, value in figures.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if ".bytes" in name:
        return "bytes"
    return "count"


# ---------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="archmeta regeneration-cycle benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "archmeta" / "cli.py").is_file() or not DESK.is_dir():
        print(f"error: {ROOT} is not an archmeta source checkout (no src/archmeta "
              f"or tests/fixtures/desk)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        if args.workload == "desk":
            wl = desk_workload(work)
        else:
            wl = generated_workload(args.workload, args.seed, work)
        if args.trace:
            trace_file = WORK / "traces" / f"{args.workload}-{args.seed}.jsonl"
            metrics = measure_layers(wl, args.seconds, trace_file, ledger)
        else:
            metrics = measure(wl, args.seconds, args.workload, ledger)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in ledger.messages:
        print(f"# FAILED {message}")
    print(f"# fail_ratio {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / ledger.attempted:.6f}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
