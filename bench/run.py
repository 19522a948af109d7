"""drivesql benchmark: one command for every workload, metric and output check.

Run from the root of a drivesql checkout:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 8 --trace 0

``--trace 0`` drives the public CLI from outside, one ``python -m drivesql``
process per stage and never more than one stage at a time, and prints the
end-to-end metrics. ``--trace 1`` runs the workload once that way and once
in process through ``drivesql.cli.run`` with spans around the calls into
each module, and prints the per-layer metrics. Both modes run the output
checks. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
PROGRAM = ROOT / "src"
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(PROGRAM))

try:
    import drivesql
    import corpus
    import spans
    import stub_reviewer
except ImportError as err:  # reported by main(): no program to measure here
    drivesql = None
    IMPORT_ERROR = err

WORKLOADS = ("pipeline", "windows", "review")
PIPELINE_SCENES, PIPELINE_WINDOWS = 8, 4
WINDOWS_SCENES, WINDOWS_PER_SCENE = 4, 64
# Review reads a dataset generated from the windows corpus at fewer windows
# per scene; one pair in REVIEW_SUBSET also goes to the reviewer.
REVIEW_SCENES, REVIEW_WINDOWS = 4, 16
REVIEW_SUBSET = 8
SETUP_REPEATS = 3
# A run makes at least MIN_SAMPLES timed iterations, each of which runs every
# stage of the workload once.
MIN_SAMPLES = 3
# A shared host's vCPUs each run 1 to 2 times slower than their fastest from
# one second to the next, independently of each other. The measuring process
# therefore keeps to one CPU, and so does every stage that uses one process.
# A fixed pure-Python loop is timed on that CPU between consecutive stages,
# and each stage's time is scaled to a host that runs the loop in
# REFERENCE_S: reported time = measured time * REFERENCE_S / mean of the
# loop times just before and just after the stage; rates the other way
# round. Unscaled values are printed too.
REFERENCE_S = 0.1
# Responses print one decimal, so an echoed number is off by at most 0.05.
ECHO_MAE_LIMIT = 0.05
WINDOWS_REPORTED = re.compile(r"\((\d+) windows\)")
CLI_STAGES = ("build_db", "generate", "verify", "verify_http", "split", "stats", "eval")


class StageFailed(Exception):
    pass


@dataclass
class StageRun:
    wall_s: float
    rss_mb: float
    stdout: str
    scale: float = 1.0  # REFERENCE_S over the loop time around the stage

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


@dataclass
class Record:
    """Everything one pass measured and checked."""

    stages: dict[str, list[StageRun]] = field(default_factory=dict)
    iteration_walls: list[float] = field(default_factory=list)
    # (items, scaled seconds, measured seconds) per sample
    rates: dict[str, list[tuple[float, float, float]]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def absorb(self, other: "Record") -> None:
        """Take over another record's checks, rates and notes, not its stages."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.notes += other.notes
        for name, values in other.rates.items():
            self.rates.setdefault(name, []).extend(values)

    def rate(self, name: str, amount: float, *runs: StageRun) -> None:
        scaled = sum(r.scaled_s for r in runs)
        self.rates.setdefault(name, []).append((amount, scaled, sum(r.wall_s for r in runs)))

    def rate_median(self, name: str, scaled: bool = True) -> float:
        col = 1 if scaled else 2
        return median([sample[0] / sample[col] for sample in self.rates.get(name, []) if sample[0] > 0])


# --------------------------------------------------------------------------
# Stage runners: child processes for measuring, in process for tracing.

ALL_CPUS = frozenset(os.sched_getaffinity(0))
# A loop timed less than this long before a stage starts serves as its
# "before" loop, so consecutive stages share one loop between them.
LOOP_REUSE_S = 0.5


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop: the speed of this CPU right now."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def loop_on(cpus: frozenset[int]) -> float:
    """Mean time of the reference loop on each of ``cpus`` in turn."""
    home = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(reference_loop_s())
    finally:
        os.sched_setaffinity(0, home)
    return sum(times) / len(times)


def pin_to_one_cpu() -> int:
    """Keep this process, and the children that inherit it, to one CPU."""
    cpu = max(ALL_CPUS)
    os.sched_setaffinity(0, {cpu})
    return cpu


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRIVESQL_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PROGRAM), env.get("PYTHONPATH")]))
    return env


def _uses_workers(argv: list) -> bool:
    args = [str(a) for a in argv]
    return "--jobs" in args and int(args[args.index("--jobs") + 1]) > 1


class ProcessStages:
    """Runs each stage as ``python -m drivesql``; times it, scales the time by
    the reference loop timed just before and after it on the CPUs the stage
    may use (unless ``reference`` is off, as in set-up, which is scaled as a
    whole), and reads its peak RSS. A stage with pool workers may use every
    CPU; the others inherit this process's CPUs."""

    def __init__(self, record: Record, logs: Path, reference: bool = True) -> None:
        self.record, self.logs, self.env = record, logs, _child_env()
        self.reference = reference
        self.loops: list[float] = []
        self._last_loop = (frozenset(), 0.0, -1.0)  # (CPUs, loop time, when it ended)

    def _loop(self, cpus: frozenset[int]) -> float:
        if not self.reference:
            return REFERENCE_S
        loop = loop_on(cpus)
        self.loops.append(loop)
        self._last_loop = (cpus, loop, time.perf_counter())
        return loop

    def run(self, name: str, argv: list[str]) -> StageRun:
        log_path = self.logs / f"{name}.log"
        widen = _uses_workers(argv)
        cpus = ALL_CPUS if widen else frozenset(os.sched_getaffinity(0))
        last_cpus, loop, ended = self._last_loop
        fresh = last_cpus == cpus and time.perf_counter() - ended < LOOP_REUSE_S
        before = loop if fresh else self._loop(cpus)
        with open(log_path, "w", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "drivesql", *map(str, argv)],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self.env,
                cwd=ROOT,
                preexec_fn=(lambda: os.sched_setaffinity(0, ALL_CPUS)) if widen else None,
            )
            try:
                # wait4 reports the child's peak RSS, including reaped workers.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            wall = time.perf_counter() - start
        after = self._loop(cpus)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = log_path.read_text(encoding="utf-8")
        run = StageRun(wall, usage.ru_maxrss / 1024.0, out, REFERENCE_S * 2 / (before + after))
        return _finish(self.record, name, proc.returncode, run)


class InProcessStages:
    """Runs each stage through ``drivesql.cli.run`` under a root span."""

    def __init__(self, record: Record, tracer: "spans.Tracer") -> None:
        self.record, self.tracer = record, tracer
        self.roots: dict[str, int] = {}

    def run(self, name: str, argv: list[str]) -> StageRun:
        from drivesql import cli

        buf = io.StringIO()
        start = time.perf_counter()
        with self.tracer.span(f"cli.{name}", "cli") as root, contextlib.redirect_stdout(
            buf
        ), contextlib.redirect_stderr(buf):
            code = cli.run([str(a) for a in argv])
        wall = time.perf_counter() - start
        self.roots[name] = root
        return _finish(self.record, name, code, StageRun(wall, 0.0, buf.getvalue()))


def _finish(record: Record, name: str, code: int, run: StageRun) -> StageRun:
    tail = " | ".join(run.stdout.strip().splitlines()[-3:])
    if not record.check(code == 0, f"stage {name} exited {code}: {tail}"):
        raise StageFailed(name)
    record.stages.setdefault(name, []).append(run)
    return run


# --------------------------------------------------------------------------
# Helpers on the files the stages exchange.


@dataclass
class PairsScan:
    pairs: int
    windows: int
    sha256: str


def scan_pairs(path: Path) -> PairsScan:
    data = path.read_bytes()
    windows = set()
    lines = data.decode("utf-8").splitlines()
    for line in lines:
        doc = json.loads(line)
        windows.add((doc["scene_id"], tuple(doc["frame_ids"])))
    return PairsScan(len(lines), len(windows), hashlib.sha256(data).hexdigest())


def count_generated(record: Record, run: StageRun, scan: PairsScan) -> None:
    """A window that raised writes no pair, so windows reported minus windows
    seen in the file are the windows counted in ``pair_failures``."""
    found = WINDOWS_REPORTED.search(run.stdout)
    if found is None:
        record.notes.append("generate did not report its window count; window failures not counted")
        return
    reported = int(found.group(1))
    record.notes.append(f"generate: {scan.pairs} pairs from {scan.windows} unique windows")
    record.attempted += reported
    record.failed += reported - scan.windows
    if reported != scan.windows:
        record.problems.append(f"{reported - scan.windows} windows failed to generate")


def write_echo(pairs_path: Path, out: Path) -> int:
    """Echoed predictions for a pairs file, written once per file."""
    if not out.exists():
        corpus.write_jsonl([corpus.echo(p) for p in corpus.read_jsonl(pairs_path)], out)
    return sum(1 for _ in out.open(encoding="utf-8"))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_verified_clean(record: Record, report_path: Path, n: int) -> None:
    report = read_json(report_path)
    record.check(
        report["kept"] == n and not report["rejected"] and not report["unverified"],
        f"verify --db on fresh pairs kept {report['kept']}/{n}, "
        f"rejected {len(report['rejected'])}, unverified {len(report['unverified'])}",
    )


def check_echo_scores(record: Record, report_path: Path) -> None:
    report = read_json(report_path)
    groups = report["groups"]
    exact = {g: v for g, v in groups.items() if not g.endswith("_mae")}
    mae = {g: v for g, v in groups.items() if g.endswith("_mae")}
    record.check(
        all(v == 1.0 for v in exact.values())
        and all(v is not None and v <= ECHO_MAE_LIMIT for v in mae.values())
        and report["extraction_failure_rate"] == 0.0,
        f"echoed predictions scored {groups}, "
        f"extraction failures {report['extraction_failure_rate']}",
    )


# --------------------------------------------------------------------------
# Set-up: everything the timed stages read, built from the seed.


@dataclass
class Inputs:
    annotations: Path
    db: Path | None = None
    pairs: Path | None = None
    pairs_sha256: str = ""
    n_pairs: int = 0
    preds: Path | None = None
    expected_unparseable: float = 0.0
    subset: Path | None = None
    expected_verdicts: dict[str, str] = field(default_factory=dict)


def write_corpus(seed: int, n_scenes: int, out: Path, record: Record) -> None:
    doc = corpus.corpus(seed, n_scenes)
    rows, kept = corpus.density(doc)
    record.notes.append(
        f"corpus: {n_scenes} scenes x {corpus.KEYFRAMES} keyframes, "
        f"{rows:.2f} rows/keyframe, {kept:.2f} kept within the importance radius"
    )
    out.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")


def generate_review_pairs(stages, record: Record, db: Path, out: Path, seed: int) -> PairsScan:
    run = stages.run(
        "generate",
        ["generate", db, "-o", out, "--seed", seed, "--windows", REVIEW_WINDOWS, "--jobs", "1"],
    )
    scan = scan_pairs(out)
    count_generated(record, run, scan)
    record.rate("pairs_per_s", scan.pairs, run)
    return scan


def setup(workload: str, seed: int, d: Path, stages: ProcessStages, record: Record) -> Inputs:
    d.mkdir(parents=True)
    inputs = Inputs(annotations=d / "annotations.json")
    scenes = {"pipeline": PIPELINE_SCENES, "windows": WINDOWS_SCENES}.get(workload, REVIEW_SCENES)
    write_corpus(seed, scenes, inputs.annotations, record)
    if workload == "pipeline":
        return inputs
    inputs.db = d / "db.json"
    stages.run("build_db", ["build-db", inputs.annotations, "-o", inputs.db])
    if workload == "windows":
        return inputs

    inputs.pairs = d / "pairs.jsonl"
    scan = generate_review_pairs(stages, record, inputs.db, inputs.pairs, seed)
    record.notes.append(f"pairs.jsonl sha256: {scan.sha256}")
    inputs.pairs_sha256, inputs.n_pairs = scan.sha256, scan.pairs
    rows = corpus.read_jsonl(inputs.pairs)
    preds, tally = corpus.perturb(rows, seed)
    inputs.preds = d / "preds.jsonl"
    corpus.write_jsonl(preds, inputs.preds)
    inputs.expected_unparseable = tally["numeric_unparseable"] / tally["numeric"]
    subset = [r for r in rows if corpus.seeded_rng(seed, "review:" + r["pair_id"]).randrange(REVIEW_SUBSET) == 0]
    inputs.subset = d / "subset.jsonl"
    corpus.write_jsonl(subset, inputs.subset)
    inputs.expected_verdicts = {r["pair_id"]: stub_reviewer.verdict_for(r["pair_id"]) for r in subset}
    return inputs


# --------------------------------------------------------------------------
# Workloads: one iteration of timed stages, then checks on the outputs.


class Workload:
    """One workload's stages. ``iteration`` runs every stage once and
    returns the measured wall time of the ``timed`` ones, whose medians sum
    to ``wall_s``; the other stages only give rates and run checks, and
    are left out when ``untimed`` is off.
    ``finish`` runs the final output checks and ``close`` stops what the
    workload started. ``sha256`` collects the hash of the ``output`` file
    each iteration wrote."""

    timed: tuple[str, ...]
    untimed = True
    output = "pairs.jsonl"

    def finish(self, stages: ProcessStages, record: Record, d: Path) -> None:
        pass

    def close(self, record: Record) -> None:
        pass


class Pipeline(Workload):
    """build-db, generate --jobs 2, verify --db, split, stats, eval on echoes."""

    timed = ("build_db", "generate", "verify", "split", "stats", "eval")

    def __init__(self, seed: int, inputs: Inputs) -> None:
        self.seed, self.inputs = seed, inputs
        self.sha256: set[str] = set()

    def iteration(self, stages, record: Record, d: Path) -> float:
        db, pairs, kept = d / "db.json", d / "pairs.jsonl", d / "kept.jsonl"
        runs = [stages.run("build_db", ["build-db", self.inputs.annotations, "-o", db])]
        runs.append(stages.run(
            "generate",
            ["generate", db, "-o", pairs, "--seed", self.seed,
             "--windows", PIPELINE_WINDOWS, "--jobs", "2"],
        ))
        scan = scan_pairs(pairs)
        self.sha256.add(scan.sha256)
        count_generated(record, runs[-1], scan)
        record.rate("pairs_per_s", scan.pairs, runs[-1])

        runs.append(stages.run("verify", ["verify", pairs, "-o", kept, "--db", db]))
        record.rate("verified_per_s", scan.pairs, runs[-1])
        check_verified_clean(record, Path(f"{kept}.report.json"), scan.pairs)

        runs.append(stages.run("split", ["split", kept, "-o", d / "splits"]))
        runs.append(stages.run("stats", ["stats", kept, db, "-o", d / "stats.json"]))

        n = write_echo(kept, d / "echo.jsonl")
        runs.append(stages.run("eval", ["eval", kept, d / "echo.jsonl", "-o", d / "report.json"]))
        record.rate("scored_per_s", n, runs[-1])
        check_echo_scores(record, d / "report.json")
        return sum(r.wall_s for r in runs)

    def finish(self, stages: ProcessStages, record: Record, d: Path) -> None:
        serial = d / "serial.jsonl"
        stages.run(
            "generate_serial",
            ["generate", d / "db.json", "-o", serial, "--seed", self.seed,
             "--windows", PIPELINE_WINDOWS, "--jobs", "1"],
        )
        record.check(
            serial.read_bytes() == (d / "pairs.jsonl").read_bytes(),
            "generate --jobs 2 pairs differ from --jobs 1 on the same database",
        )


class Windows(Workload):
    """One generate --jobs 1 call with many windows per scene, timed. verify
    --db and eval on echoes of its pairs follow as output checks; they give
    this workload's verified_per_s and scored_per_s."""

    timed = ("generate",)

    def __init__(self, seed: int, inputs: Inputs) -> None:
        self.seed, self.inputs = seed, inputs
        self.sha256: set[str] = set()

    def iteration(self, stages, record: Record, d: Path) -> float:
        pairs, kept = d / "pairs.jsonl", d / "kept.jsonl"
        run = stages.run(
            "generate",
            ["generate", self.inputs.db, "-o", pairs, "--seed", self.seed,
             "--windows", WINDOWS_PER_SCENE, "--jobs", "1"],
        )
        scan = scan_pairs(pairs)
        self.sha256.add(scan.sha256)
        count_generated(record, run, scan)
        record.rate("pairs_per_s", scan.pairs, run)
        if not self.untimed:
            return run.wall_s

        ver = stages.run("verify", ["verify", pairs, "-o", kept, "--db", self.inputs.db])
        record.rate("verified_per_s", scan.pairs, ver)
        check_verified_clean(record, Path(f"{kept}.report.json"), scan.pairs)

        n = write_echo(pairs, d / "echo.jsonl")
        ev = stages.run("eval", ["eval", pairs, d / "echo.jsonl", "-o", d / "report.json"])
        record.rate("scored_per_s", n, ev)
        check_echo_scores(record, d / "report.json")
        return run.wall_s


class Review(Workload):
    """verify --db on every pair, verify --verifier on a subset, eval on
    perturbed predictions, all timed. A generate run of set-up's pairs
    follows, untimed; it gives pairs_per_s and must write set-up's pairs."""

    timed = ("verify", "verify_http", "eval")
    output = "kept.jsonl"

    def __init__(self, seed: int, inputs: Inputs) -> None:
        self.seed, self.inputs = seed, inputs
        self.sha256: set[str] = set()
        self.stub: StubReviewer | None = None
        self.reviews = 0

    def iteration(self, stages, record: Record, d: Path) -> float:
        if self.stub is None:
            self.stub = StubReviewer()
        inp = self.inputs
        kept, reviewed = d / "kept.jsonl", d / "reviewed.jsonl"
        ver = stages.run("verify", ["verify", inp.pairs, "-o", kept, "--db", inp.db])
        self.sha256.add(hashlib.sha256(kept.read_bytes()).hexdigest())
        check_verified_clean(record, Path(f"{kept}.report.json"), inp.n_pairs)
        http = stages.run(
            "verify_http", ["verify", inp.subset, "-o", reviewed, "--verifier", self.stub.url]
        )
        self.reviews += 1
        record.rate("verified_per_s", inp.n_pairs + len(inp.expected_verdicts), ver, http)
        self._check_review(record, Path(f"{reviewed}.report.json"))

        ev = stages.run("eval", ["eval", inp.pairs, inp.preds, "-o", d / "report.json"])
        record.rate("scored_per_s", inp.n_pairs, ev)
        rate = read_json(d / "report.json")["extraction_failure_rate"]
        record.check(
            abs(rate - inp.expected_unparseable) <= 1e-12,
            f"extraction failure rate {rate} != {inp.expected_unparseable} made unparseable",
        )

        if self.untimed:
            scan = generate_review_pairs(stages, record, inp.db, d / "pairs.jsonl", self.seed)
            record.check(scan.sha256 == inp.pairs_sha256, "generate wrote other pairs than in set-up")
        return ver.wall_s + http.wall_s + ev.wall_s

    def _check_review(self, record: Record, report_path: Path) -> None:
        report = read_json(report_path)
        expected = self.inputs.expected_verdicts
        drops = {pid for pid, v in expected.items() if v == "drop"}
        revises = {pid for pid, v in expected.items() if v == "revise"}
        record.attempted += len(expected)
        record.failed += len(report["unverified"])
        record.check(
            {r["pair_id"] for r in report["rejected"]} == drops
            and set(report["revised"]) == revises
            and report["kept"] == len(expected) - len(drops)
            and not report["unverified"],
            f"verify --verifier report (kept {report['kept']}, rejected {len(report['rejected'])}, "
            f"revised {len(report['revised'])}, unverified {len(report['unverified'])}) "
            f"does not match the reviewer's verdicts",
        )

    def close(self, record: Record) -> None:
        """Stop the stub and check its tally against the requests sent."""
        if self.stub is None:
            return
        stats = self.stub.stop()
        self.stub = None
        expected = {"keep": 0, "drop": 0, "revise": 0, "error": 0}
        for verdict in self.inputs.expected_verdicts.values():
            expected[verdict] += self.reviews
        record.check(
            stats["tally"] == expected and stats["served"] == sum(expected.values()),
            f"reviewer served {stats['served']} with tally {stats['tally']}, expected {expected}",
        )
        record.counters.update(
            verifier_requests=stats["served"],
            verifier_inflight_max=stats["inflight_max"],
            verifier_busy_s=stats["busy_s"],
        )


class StubReviewer:
    """The stub reviewer as a child process on a free localhost port."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub_reviewer.py")],
            stdout=subprocess.PIPE,
            text=True,
        )
        first = self.proc.stdout.readline().split()
        if len(first) != 2 or first[0] != "port":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"stub reviewer did not report its port: {first}")
        self.url = f"http://127.0.0.1:{first[1]}/review"

    def stop(self) -> dict:
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        return json.loads(out.strip().splitlines()[-1])


WORKLOAD_CLASSES = {"pipeline": Pipeline, "windows": Windows, "review": Review}


# --------------------------------------------------------------------------
# Passes.


def run_pass(workload, stages, record: Record, d: Path, seconds: float, at_least: int = 1) -> None:
    """Iterations until ``seconds`` have passed and ``at_least`` ran."""
    d.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + seconds
    while True:
        record.iteration_walls.append(workload.iteration(stages, record, d))
        if time.perf_counter() >= deadline and len(record.iteration_walls) >= at_least:
            break


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def stage_median(record: Record, name: str, attr: str) -> float:
    return median([getattr(r, attr) for r in record.stages.get(name, [])])


def end_to_end(record: Record, timed: tuple[str, ...], setup: list[tuple[float, float]],
               loops: list[float]) -> dict[str, float]:
    """Medians of the scaled samples; ``setup`` holds (scaled, measured) times."""
    for name, samples in sorted(record.rates.items()):
        record.notes.append(
            f"{name}: {len(samples)} samples over {sum(s for _, _, s in samples):.2f} s of stage time, "
            "scaled (measured): " + " ".join(f"{n / s:.6g} ({n / m:.6g})" for n, s, m in samples)
        )
    record.notes.append("reference loop s: " + " ".join(f"{x:.4f}" for x in loops))
    values = {
        "setup_s": median([scaled for scaled, _ in setup]),
        "wall_s": sum(stage_median(record, n, "scaled_s") for n in timed),
        "pairs_per_s": record.rate_median("pairs_per_s"),
        "verified_per_s": record.rate_median("verified_per_s"),
        "scored_per_s": record.rate_median("scored_per_s"),
    }
    measured = {
        "setup_s": median([m for _, m in setup]),
        "wall_s": sum(stage_median(record, n, "wall_s") for n in timed),
        **{k: record.rate_median(k, scaled=False) for k in ("pairs_per_s", "verified_per_s", "scored_per_s")},
    }
    record.notes.append("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()))
    values["peak_rss_mb"] = max(
        (stage_median(record, n, "rss_mb") for n in record.stages), default=0.0
    )
    return values


def measure(name: str, seed: int, seconds: float, work: Path, record: Record) -> dict[str, float]:
    cpu = pin_to_one_cpu()
    record.notes.append(f"measuring on CPU {cpu} of {sorted(ALL_CPUS)}")
    setup_times = []
    setup_record = Record()
    for rep in range(SETUP_REPEATS):
        before = reference_loop_s()
        start = time.perf_counter()
        inputs = setup(name, seed, work / f"setup{rep}", ProcessStages(setup_record, work, False), setup_record)
        took = time.perf_counter() - start
        after = reference_loop_s()
        setup_times.append((took * REFERENCE_S * 2 / (before + after), took))
    setup_record.rates.clear()  # set-up's stages are not scaled
    record.absorb(setup_record)
    workload = WORKLOAD_CLASSES[name](seed, inputs)
    stages = ProcessStages(record, work)
    try:
        run_pass(workload, stages, record, work / "run", seconds, MIN_SAMPLES)
        workload.finish(stages, record, work / "run")
    finally:
        workload.close(record)
    record.notes.append(f"{workload.output} sha256: {' '.join(sorted(workload.sha256))}")
    record.notes.append(
        f"{len(record.iteration_walls)} iterations, measured wall of the timed stages each: "
        + " ".join(f"{w:.3f}" for w in record.iteration_walls)
    )
    record.check(len(workload.sha256) == 1, f"{workload.output} differs between iterations of one run")
    return end_to_end(record, workload.timed, setup_times, stages.loops)


# --------------------------------------------------------------------------
# Traced run.

# Each function is wrapped at the module attribute its caller looks up.
TRACED = [
    ("drivesql.synth:synth_scene", "synth.synth_scene"),
    ("drivesql.cli:build_database", "scene_db.build_database"),
    ("drivesql.scene_db:build_database", "scene_db.build_database"),
    ("drivesql.cli:load_database", "scene_db.load_database"),
    ("drivesql.cli:save_database", "scene_db.save_database"),
    ("drivesql.cli:generate_dataset", "generation.generate_dataset"),
    ("drivesql.generation:render_instruction", "generation.render_instruction"),
    ("drivesql.generation:render_response", "generation.render_response"),
    ("drivesql.cli:write_pairs_jsonl", "generation.write_jsonl"),
    ("drivesql.cli:read_pairs_jsonl", "generation.read_jsonl"),
    ("drivesql.cli:verify_pairs", "generation.verify_pairs"),
    ("drivesql.generation:offline_check", "generation.offline_check"),
    ("drivesql.generation:motion_others", "task_sql.motion_others"),
    ("drivesql.task_sql:motion_others", "task_sql.motion_others"),
    ("drivesql.generation:detect_risk", "task_sql.detect_risk"),
    ("drivesql.task_sql:detect_risk", "task_sql.detect_risk"),
    ("drivesql.generation:planning_with_reasoning", "task_sql.planning_with_reasoning"),
    *(
        (f"drivesql.generation:{fn}", f"task_sql.{fn}")
        for fn in ("distance", "speeds", "status", "same_road", "closest",
                   "instance_number", "motion_ego", "status_ego", "status_others")
    ),
    ("drivesql.task_sql:relative_motion", "geometry.relative_motion"),
    *((f"drivesql.{m}:canonical_dumps", "canonical.dumps")
      for m in ("canonical", "cli", "generation", "scene_db")),
    ("drivesql.cli:evaluate", "evaluation.evaluate"),
    ("drivesql.evaluation:mae", "evaluation.mae"),
    ("drivesql.evaluation:accuracy", "evaluation.accuracy"),
    ("drivesql.evaluation:average_precision", "evaluation.average_precision"),
    ("drivesql.evaluation:bleu", "evaluation.bleu"),
    ("drivesql.cli:read_predictions_jsonl", "evaluation.read_predictions"),
    ("drivesql.cli:split_dataset", "evaluation.split_dataset"),
    *((f"drivesql.{m}:{fn}", f"textutil.{fn}")
      for m in ("generation", "evaluation")
      for fn in ("extract_numbers", "tokenize", "count_mentions")),
    ("drivesql.textutil:tokenize", "textutil.tokenize"),
    ("drivesql.cli:compute_stats", "stats.compute_stats"),
]


def install(tracer: "spans.Tracer", record: Record, loaded: list[Path]) -> None:
    def on_generate(t, args, kwargs, result):
        _, diag = result
        t.add("windows_unique", diag.windows_unique)
        t.add("pair_failures", diag.pair_failures)

    def on_build(t, args, kwargs, result):
        t.counters["rows_kept"] = len(result.instances)

    observers: dict[str, Callable] = {
        "generation.generate_dataset": on_generate,
        "scene_db.build_database": on_build,
        "scene_db.load_database": lambda t, a, k, r: loaded.append(Path(a[0])),
        "canonical.dumps": lambda t, a, k, r: t.add("bytes_out", len(r)),
    }
    for target, name in TRACED:
        try:
            tracer.wrap(target, name, observers.get(name))
        except (AttributeError, ImportError):
            record.notes.append(f"not traced: {target} does not exist")


def parallel_speedup(seed: int, db_path: Path, record: Record) -> float:
    """Serial over two-worker generate_dataset time on one loaded database."""
    from drivesql.generation import GenerationConfig, generate_dataset
    from drivesql.scene_db import load_database

    db = load_database(db_path)
    config = GenerationConfig(master_seed=seed, windows_per_scene=PIPELINE_WINDOWS)
    start = time.perf_counter()
    serial, _ = generate_dataset(db, config, jobs=1)
    mid = time.perf_counter()
    pooled, _ = generate_dataset(db, config, jobs=2)
    end = time.perf_counter()
    record.check(serial == pooled, "generate_dataset jobs=2 differs from jobs=1")
    return (mid - start) / (end - mid)


def per_layer(name: str, seed: int, work: Path, record: Record) -> dict[str, float]:
    tracer = spans.Tracer()
    loaded: list[Path] = []
    install(tracer, record, loaded)
    try:
        setup_record = Record()
        with tracer.span("setup", "bench") as setup_root:
            inputs = setup(name, seed, work / "setup", ProcessStages(setup_record, work, False), setup_record)
        record.absorb(setup_record)

        # Untraced pass: the cli.* metrics, and the base of the overhead ratio.
        plain = WORKLOAD_CLASSES[name](seed, inputs)
        try:
            stages = ProcessStages(record, work, False)
            run_pass(plain, stages, record, work / "plain", 0)
            plain.finish(stages, record, work / "plain")
        finally:
            plain.close(record)
        stub_counters = dict(record.counters)

        traced_record = Record()
        traced = WORKLOAD_CLASSES[name](seed, inputs)
        traced.untimed = False  # the traced pass covers only the timed stages
        tracer.counters.clear()
        loaded.clear()
        traced_stages = InProcessStages(traced_record, tracer)
        try:
            with tracer.span("workload", "bench") as root:
                run_pass(traced, traced_stages, traced_record, work / "traced", 0)
        finally:
            traced.close(traced_record)
    finally:
        tracer.restore()
    # Predictions the traced eval scored, for the per-prediction tokenize count.
    scored = sum(n for n, _, _ in traced_record.rates.get("scored_per_s", []))
    traced_record.problems = [f"traced pass: {p}" for p in traced_record.problems]
    traced_record.rates.clear()
    record.absorb(traced_record)
    record.check(traced.sha256 == plain.sha256, f"traced pass wrote a different {plain.output}")

    all_spans = tracer.finished()
    own = spans.self_times(all_spans)
    s = spans.Summary(all_spans, own, spans.within(all_spans, root))
    synth = spans.Summary(all_spans, own, spans.within(all_spans, setup_root))
    c = tracer.counters
    windows = c.get("windows_unique", 0)
    per_window = lambda n: s.count(n) / windows if windows else 0.0  # noqa: E731
    eval_spans = (
        spans.Summary(all_spans, own, spans.within(all_spans, traced_stages.roots["eval"]))
        if "eval" in traced_stages.roots else None
    )
    json_parse = 0.0
    for path in loaded:
        text = path.read_text(encoding="utf-8")
        start = time.perf_counter()
        json.loads(text)
        json_parse += time.perf_counter() - start
    http_wall = sum(r.wall_s for r in record.stages.get("verify_http", []))

    metrics: dict[str, float] = {}
    for stage in CLI_STAGES:
        metrics[f"cli.{stage}_s"] = stage_median(record, stage, "wall_s")
        metrics[f"cli.{stage}_rss_mb"] = stage_median(record, stage, "rss_mb")
    metrics.update({
        "scene_db.build_database_s": s.seconds("scene_db.build_database"),
        "scene_db.load_database_s": s.seconds("scene_db.load_database"),
        "scene_db.load_calls": s.count("scene_db.load_database"),
        "scene_db.json_parse_s": json_parse,
        "scene_db.save_database_s": s.seconds("scene_db.save_database"),
        "scene_db.rows_kept": c.get("rows_kept", 0),
        "scene_db.self_s": s.self_seconds("scene_db"),
        "generation.generate_dataset_s": s.seconds("generation.generate_dataset"),
        "generation.parallel_speedup": (
            parallel_speedup(seed, work / "plain" / "db.json", record) if name == "pipeline" else 0.0
        ),
        "generation.windows_unique": windows,
        "generation.pair_failures": c.get("pair_failures", 0),
        "generation.render_s": s.seconds(
            "generation.render_instruction", "generation.render_response"
        ),
        "generation.write_jsonl_s": s.seconds("generation.write_jsonl"),
        "generation.read_jsonl_s": s.seconds("generation.read_jsonl"),
        "generation.offline_check_s": s.seconds("generation.offline_check"),
        "generation.verifier_requests": stub_counters.get("verifier_requests", 0),
        "generation.verifier_inflight_max": stub_counters.get("verifier_inflight_max", 0),
        "generation.verifier_busy_ratio": (
            stub_counters.get("verifier_busy_s", 0.0) / http_wall if http_wall else 0.0
        ),
        "generation.self_s": s.self_seconds("generation"),
        "task_sql.motion_others_per_window": per_window("task_sql.motion_others"),
        "task_sql.detect_risk_per_window": per_window("task_sql.detect_risk"),
        "task_sql.motion_others_s": s.seconds("task_sql.motion_others"),
        "task_sql.detect_risk_s": s.seconds("task_sql.detect_risk"),
        "task_sql.planning_s": s.seconds("task_sql.planning_with_reasoning"),
        "task_sql.self_s": s.self_seconds("task_sql"),
        "geometry.relative_motion_per_window": per_window("geometry.relative_motion"),
        "geometry.relative_motion_s": s.seconds("geometry.relative_motion"),
        "canonical.dumps_calls": s.count("canonical.dumps"),
        "canonical.dumps_s": s.seconds("canonical.dumps"),
        "canonical.bytes_out": c.get("bytes_out", 0),
        "evaluation.evaluate_s": s.seconds("evaluation.evaluate"),
        "evaluation.mae_calls": s.count("evaluation.mae"),
        "evaluation.accuracy_calls": s.count("evaluation.accuracy"),
        "evaluation.average_precision_s": s.seconds("evaluation.average_precision"),
        "evaluation.bleu_s": s.seconds("evaluation.bleu"),
        "evaluation.read_predictions_s": s.seconds("evaluation.read_predictions"),
        "evaluation.self_s": s.self_seconds("evaluation"),
        "textutil.tokenize_per_scored_pair": (
            eval_spans.count("textutil.tokenize") / scored if eval_spans and scored else 0.0
        ),
        "textutil.extract_numbers_calls": s.count("textutil.extract_numbers"),
        "textutil.s": s.self_seconds("textutil"),
        "stats.compute_stats_s": s.seconds("stats.compute_stats"),
        "synth.synth_scene_s": synth.seconds("synth.synth_scene"),
        "trace.overhead_ratio": (
            sum(traced_record.iteration_walls) / sum(record.iteration_walls)
        ),
    })
    return metrics


# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so stage processes and the stub reviewer
    # are stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if drivesql is None or Path(drivesql.__file__).resolve().parent != (PROGRAM / "drivesql").resolve():
        problem = IMPORT_ERROR if drivesql is None else f"drivesql imported from {drivesql.__file__}"
        print(f"error: no drivesql program under {PROGRAM}: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for key in [k for k in os.environ if k.startswith("DRIVESQL_")]:
        del os.environ[key]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    record = Record()
    try:
        if args.trace:
            values = per_layer(args.workload, args.seed, work, record)
        else:
            values = measure(args.workload, args.seed, args.seconds, work, record)
    except StageFailed:
        values = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in dict.fromkeys(record.notes):
        print(note)
    for problem in record.problems:
        print(f"FAILED CHECK: {problem}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value:.6g} {m['unit']}")
    extra = set(values) - {m["name"] for m in wanted}
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": max(record.attempted, 1),
        "failed": record.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
