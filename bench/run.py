"""Benchmark of ``pmmobility analyze``, end to end and per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload screen|analyze|verify --seed N \\
        --seconds S --trace 0|1 [--corpus N]

One process drives the real CLI entry point in process, ``pmmobility.cli.
run(["analyze", ...])``, in a closed loop: one caller, one file per call,
the next call only after the previous one returned.  Workloads, all with
``--policy general``:

* ``screen``: raw random topologies, human format, no oracle.  About 40% are
  rejected by the relation graph.  Models candidate enumeration in type
  synthesis; the time goes to parsing, relation-graph build and the CLI.
* ``analyze``: the ten fixtures plus seeded general-position topologies,
  structured format with the trace.  Every op runs the whole symbolic
  pipeline and the rich report.
* ``verify``: the fixtures and the first 400 topologies of the ``analyze``
  corpus (same generator, same seed), human format with ``--oracle --seeds
  20``.  The numeric oracle takes most of each op.  The prefix keeps the
  checked pass near 11 s; ``analyze`` draws 1000 so that one seed's corpus
  does not move its figures by more than a few percent.

A run checks that ``pmmobility`` comes from this checkout, writes the seeded
corpus and parses it back, compares the tricept and 3-RRC reports with
``tests/golden``, makes one checked pass over the corpus, then cycles over
the corpus for ``--seconds``.  Fresh interpreters that import the CLI and
analyze one file (``setup_s``) are spawned at even intervals through that
window.  With ``--trace 1`` the window is split: the first half untraced,
the second with span wrappers installed (see ``spans.py``), and the
per-layer metrics are printed instead of the end-to-end ones.

Shared hosts drift in speed: on the 2-vCPU host the bounds were set on, by
up to 40% for seconds at a time.  Op latencies are therefore scaled by a
fixed piece of reference work timed every 50 ms in the same loop, and each
set-up spawn by readings of it taken around the spawn (see
``reference_seconds``); the raw wall-clock rate is printed beside them.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 2, with no such line, when the
checkout has no ``src/pmmobility``.
"""

from __future__ import annotations

import argparse
import difflib
import enum
import fractions
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 12
ORACLE_SEEDS = 20
# Seconds the reference work takes on the host the bounds were set on, so
# that scaled latencies read as milliseconds there.
REFERENCE_NOMINAL_S = 0.0015
REFERENCE_EVERY_S = 0.05


@dataclass(frozen=True)
class Workload:
    flags: tuple[str, ...]
    corpus: str  # generator in corpus.py
    size: int  # generated topologies; the fixtures come on top when included
    fixtures: bool
    structured: bool
    seeds: int | None  # oracle seed count, None when the oracle is off


WORKLOADS = {
    "screen": Workload(("--policy", "general"), "raw", 1000, False, False, None),
    "analyze": Workload(
        ("--policy", "general", "--format", "structured", "--trace"), "labeled", 1000, True, True, None
    ),
    "verify": Workload(
        ("--policy", "general", "--oracle", "--seeds", str(ORACLE_SEEDS)),
        "labeled",
        400,
        True,
        False,
        ORACLE_SEEDS,
    ),
}


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_checkout() -> dict[str, object]:
    """Import pmmobility from this checkout's ``src`` and describe the run.

    The package is not installed; an installed copy would otherwise be
    measured without anyone noticing.  Children get ``src`` first on
    ``PYTHONPATH`` too.
    """
    if not (SRC / "pmmobility" / "__init__.py").is_file():
        fail(f"no pmmobility package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    # the oracle base seed must be the CLI default, not whatever is exported
    os.environ.pop("POC_SEED", None)
    # One BLAS thread, here and in the set-up children: the loop has one
    # caller, and a BLAS thread pool contending for a 2-vCPU host made the
    # verify set-up time drift by a quarter between runs.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    import pmmobility

    if not Path(pmmobility.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"pmmobility imported from {pmmobility.__file__}, not from {SRC}")
    from importlib.metadata import PackageNotFoundError, version

    def installed(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "unknown"

    return {
        "commit": commit_id(),
        "python": sys.version.split()[0],
        "numpy": installed("numpy"),
        "click": installed("click"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def commit_id() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class _Kind(enum.Enum):
    R = "R"
    P = "P"


@dataclass(frozen=True)
class _Node:
    leg: int
    joint: int
    kind: _Kind


_TEXT_A = "leg 1  RRPRRR  f=6  t=[3 0 0 0 0 0]  r=[3 0 0 0 0 0]  3T3R  loop 1  xi=6"
_TEXT_B = "leg 4  RRP     f=3  t=[0 0 1 0 0 0]  r=[1 1 0 0 0 0]  1T2R  loop 3  xi=5"


def reference_seconds() -> float:
    """Time a fixed piece of pure-Python work: frozen dataclass and enum
    keys, dict building, sorting, and a few pure-Python standard library
    routines, so that its code footprint is broad like the package's own.
    """
    start = perf_counter()
    for _ in range(3):
        difflib.SequenceMatcher(None, _TEXT_A, _TEXT_B).ratio()
        total = fractions.Fraction(0)
        for i in range(1, 25):
            total += fractions.Fraction(1, i)
        textwrap.fill(_TEXT_A + _TEXT_B, 30)
        nodes = {
            _Node(leg, joint, _Kind.R if (leg + joint) % 3 else _Kind.P): leg * joint
            for leg in range(1, 7)
            for joint in range(1, 7)
        }
        sorted(nodes, key=lambda n: (n.kind.value, -n.leg, n.joint))
        statistics.median(nodes.values())
    return perf_counter() - start


class CliCaller:
    """Calls the CLI in process with stdout and stderr captured.

    The capture buffers are reused: click caches every stream it writes to
    and that cache keeps each one alive, so a fresh buffer per call would
    grow the process by about 3 MB per 1000 calls.
    """

    def __init__(self) -> None:
        self.out, self.err = io.StringIO(), io.StringIO()

    def __call__(self, argv: list[str]) -> tuple[int | None, str, str, Exception | None, float]:
        """Exit code, stdout, stderr, escaped exception and duration of one call."""
        from pmmobility import cli

        for buffer in (self.out, self.err):
            buffer.seek(0)
            buffer.truncate()
        code, escaped = None, None
        with redirect_stdout(self.out), redirect_stderr(self.err):
            start = perf_counter()
            try:
                code = cli.run(argv)
            except Exception as exc:  # an escaped exception is a failed op, not a crash
                escaped = exc
            elapsed = perf_counter() - start
        return code, self.out.getvalue(), self.err.getvalue(), escaped, elapsed


def check_golden(call: CliCaller) -> list[str]:
    from answers import GOLDEN as names

    problems = []
    for name in names:
        code, stdout, _, escaped, _ = call(["analyze", "--trace", str(FIXTURES / f"{name}.mech")])
        expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        if escaped is not None or code != 0 or stdout != expected:
            problems.append(f"golden report of {name} differs")
    return problems


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)$")


def import_times(stderr: str) -> tuple[float, float]:
    """pmmobility and numpy cumulative import ms from ``-X importtime``."""
    package_us = numpy_us = 0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        if depth == 0 and name.split(".")[0] == "pmmobility":
            package_us += cumulative
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
    return package_us / 1e3, numpy_us / 1e3


class SetupProbe:
    """Fresh interpreters that put ``src`` on their path, import the CLI,
    analyze ``toy_hinge.mech`` with the workload's flags and exit.

    ``walls`` holds their scaled wall times, ``imports`` their pmmobility
    and numpy import times when run with ``-X importtime``.
    """

    def __init__(self, workload: Workload, importtime: bool) -> None:
        argv = ["analyze", *workload.flags, str(FIXTURES / "toy_hinge.mech")]
        code = (
            f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"from pmmobility.cli import run; sys.exit(run({argv!r}))"
        )
        self.command = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", code]
        self.importtime = importtime
        self.walls: list[float] = []
        self.imports: list[tuple[float, float]] = []
        self._spawn()  # the first spawn may still compile bytecode: not kept

    def _spawn(self) -> tuple[subprocess.CompletedProcess, float]:
        start = perf_counter()
        child = subprocess.run(self.command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - start
        if child.returncode != 0 or "toy-hinge" not in child.stdout:
            fail(f"set-up child exited {child.returncode}: {child.stderr.strip()[-500:]}")
        return child, wall

    def spawn(self) -> None:
        """One kept spawn; its wall time is scaled by reference readings
        taken just before and after it."""
        before = [reference_seconds() for _ in range(3)]
        child, wall = self._spawn()
        reference = statistics.median(before + [reference_seconds() for _ in range(3)])
        self.walls.append(wall * REFERENCE_NOMINAL_S / reference)
        if self.importtime:
            self.imports.append(import_times(child.stderr))


def build_corpus(workload: Workload, seed: int, size: int, directory: Path) -> tuple[list, str]:
    """Corpus entries ``(path, fixture name or None)`` and its digest."""
    import corpus

    paths, digest = corpus.write_corpus(directory, workload.corpus, seed, size)
    entries = [(str(p), None) for p in paths]
    if workload.fixtures:
        fixture_paths = sorted(FIXTURES.glob("*.mech"))
        combined = hashlib.sha256(digest.encode())
        for p in fixture_paths:
            combined.update(p.read_bytes())
        digest = combined.hexdigest()
        entries = [(str(p), p.stem) for p in fixture_paths] + entries
    return entries, digest


class Loop:
    """Closed loop: one op at a time over the corpus, checked."""

    def __init__(self, workload: Workload, entries: list, probe: SetupProbe) -> None:
        self.workload = workload
        self.entries = entries
        self.probe = probe
        self.call = CliCaller()
        self.argv_head = ["analyze", *workload.flags]
        self.expected: list[tuple[int | None, int]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.tracer = None

    def checked_pass(self) -> tuple[str, int]:
        """Run every entry once, checking each answer.

        Returns a digest over every op's exit code and stdout, and the
        number of ops that exited 0.
        """
        from answers import check_op

        digest = hashlib.sha256()
        exit_zero = 0
        for path, fixture in self.entries:
            code, stdout, stderr, escaped, _ = self.call([*self.argv_head, path])
            self.attempted += 1
            if escaped is not None:
                problem = f"exception escaped: {type(escaped).__name__}: {escaped}"
            else:
                problem = check_op(
                    path, fixture, self.workload.structured, self.workload.seeds, code, stdout, stderr
                )
            if problem:
                self.failures.append(f"{path}: {problem}")
            self.expected.append((code, hash(stdout)))
            digest.update(f"{code}\n{stdout}\0".encode())
            exit_zero += code == 0
        return digest.hexdigest(), exit_zero

    def timed(self, seconds: float, spawns: int) -> tuple[list[list[float]], float, float]:
        """Cycle over the corpus for ``seconds``, with ``spawns`` set-up
        spawns at even intervals.

        Returns each entry's call latencies scaled to the nominal reference
        speed, the wall time, and the unscaled time spent inside ops.  A
        repeated call must give the answer of the checked pass.
        """
        latencies: list[list[float]] = [[] for _ in self.entries]
        busy = 0.0
        index = 0
        start = perf_counter()
        deadline = start + seconds
        interval = seconds / (spawns + 1)
        next_spawn = start + interval
        reference = reference_seconds()
        next_reference = start + REFERENCE_EVERY_S
        while True:
            path = self.entries[index][0]
            if self.tracer is not None:
                self.tracer.op = self.attempted
            code, stdout, _, escaped, elapsed = self.call([*self.argv_head, path])
            self.attempted += 1
            busy += elapsed
            latencies[index].append(elapsed * REFERENCE_NOMINAL_S / reference)
            if escaped is not None or (code, hash(stdout)) != self.expected[index]:
                self.failures.append(f"{path}: answer changed on a repeated call")
            index = (index + 1) % len(self.entries)
            now = perf_counter()
            if now >= deadline:
                break
            if spawns and now >= next_spawn:
                self.probe.spawn()
                spawns -= 1
                next_spawn += interval
                now = next_reference = perf_counter()
            if now >= next_reference:
                reference = reference_seconds()
                next_reference = perf_counter() + REFERENCE_EVERY_S
        wall = perf_counter() - start
        for _ in range(spawns):  # a window too short for all of them
            self.probe.spawn()
        return latencies, wall, busy


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (exclusive method) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


def report_metric(metrics: dict, name: str, value: float, unit: str, note: str) -> None:
    metrics[name] = {"value": value, "unit": unit}
    print(f"metric {name} = {value:.6g} {unit}  ({note})")


def end_to_end_metrics(
    workload: Workload, loop: Loop, latencies, wall: float, exit_zero: int
) -> dict[str, dict]:
    metrics: dict[str, dict] = {}
    # one latency per mechanism: the median of its scaled calls
    ms = [1e3 * statistics.median(calls) for calls in latencies if calls]
    n = len(ms)
    calls = sum(map(len, latencies))
    print(f"timed: {calls} calls on {n} mechanisms in {wall:.3f} s, {calls / wall:.2f}/s wall clock")
    walls = loop.probe.walls
    report_metric(metrics, "setup_s", statistics.median(walls), "s", f"median of {len(walls)} spawns")
    report_metric(metrics, "mech_per_s", 1e3 * n / sum(ms), "1/s", f"n={n} mechanisms, {calls} calls")
    report_metric(metrics, "op_p50_ms", statistics.median(ms), "ms", f"n={n}")
    report_metric(metrics, "op_p90_ms", percentile(ms, 90), "ms", f"n={n}, {n - int(0.9 * n)} beyond")
    if workload.seeds is None:
        agree, note = 1.0, "no oracle on this workload, so no disagreement"
    else:
        agree, note = exit_zero / len(loop.entries), f"{exit_zero} of {len(loop.entries)} mechanisms"
    report_metric(metrics, "oracle_agree_frac", agree, "fraction", note)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report_metric(metrics, "peak_rss_mb", rss, "MB", "ru_maxrss of the workload process")
    return metrics


def layer_metrics(workload: Workload, loop: Loop, plain, plain_wall, traced, traced_wall, traced_busy):
    import spans

    metrics: dict[str, dict] = {}
    tracer = loop.tracer
    ops = sum(map(len, traced))
    for name, value in tracer.layer_metrics(ops, workload.seeds or 1).items():
        report_metric(metrics, name, value, spans.LAYER_METRICS[name], f"mean per op, n={ops}")
    imports = loop.probe.imports
    note = f"median of {len(imports)} spawns"
    report_metric(metrics, "setup.import_ms", statistics.median(p for p, _ in imports), "ms", note)
    report_metric(metrics, "setup.numpy_import_ms", statistics.median(n for _, n in imports), "ms", note)
    both = [i for i, (p, t) in enumerate(zip(plain, traced)) if p and t]
    plain_s = sum(statistics.median(plain[i]) for i in both)
    traced_s = sum(statistics.median(traced[i]) for i in both)
    plain_ops = sum(map(len, plain))
    report_metric(
        metrics,
        "trace.overhead_frac",
        traced_s / plain_s - 1,
        "fraction",
        f"scaled latency of {len(both)} mechanisms traced vs untraced; wall clock "
        f"{ops / traced_wall:.1f}/s traced vs {plain_ops / plain_wall:.1f}/s untraced",
    )
    by_span = tracer.self_time_by_span()
    report_metric(
        metrics,
        "trace.attributed_frac",
        sum(by_span.values()) / traced_busy,
        "fraction",
        "span self times / traced op time",
    )
    for name, seconds in sorted(by_span.items(), key=lambda kv: -kv[1]):
        print(f"self {name:<20} {1e3 * seconds / ops:9.4f} ms/op  {seconds / traced_busy:7.2%}")
    for point in tracer.absent:
        print(f"absent layer: {point}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corpus", type=int, default=None, help="generated topologies (default: per workload)"
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    size = workload.size if args.corpus is None else args.corpus

    env = pin_checkout()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env))

    problems = check_golden(CliCaller())
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        entries, corpus_digest = build_corpus(workload, args.seed, size, Path(tmp))
        print(
            f"corpus: {len(entries)} files ({size} {workload.corpus} generated, "
            f"{len(entries) - size} fixtures), round trip ok, sha256:{corpus_digest}"
        )
        loop = Loop(workload, entries, SetupProbe(workload, importtime=bool(args.trace)))
        answers_digest, exit_zero = loop.checked_pass()
        print(f"answers: sha256:{answers_digest} over {len(entries)} ops")
        if args.trace:
            import spans

            half = SETUP_SPAWNS // 2
            plain, plain_wall, _ = loop.timed(args.seconds / 2, half)
            loop.tracer = spans.Tracer()
            loop.tracer.install()
            try:
                traced, traced_wall, traced_busy = loop.timed(args.seconds / 2, SETUP_SPAWNS - half)
            finally:
                loop.tracer.uninstall()
        else:
            latencies, wall, _ = loop.timed(args.seconds, SETUP_SPAWNS)

    failed = len(loop.failures)
    for failure in loop.failures:
        print(f"FAILED {failure}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"fail_frac = {failed / loop.attempted:.6g}  ({failed} of {loop.attempted} ops)")
    if args.trace:
        metrics = layer_metrics(workload, loop, plain, plain_wall, traced, traced_wall, traced_busy)
        out = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        loop.tracer.dump(out)
        print(f"spans: {len(loop.tracer.spans)} written to {out.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(workload, loop, latencies, wall, exit_zero)
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": loop.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
