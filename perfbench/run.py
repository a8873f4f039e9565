"""End-to-end benchmark of `limon check`, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bulk-ops --seed 1 --seconds 12 --trace 0

Workloads are listed in BENCHMARK.json and built by corpus.py; README.md
in this directory says why each was chosen and which end-to-end metric each
layer metric should move.

With --trace 0 the benchmark sets up the corpora several times (each set-up
generates every file of the workload into a fresh directory, in a child
process) and then runs a closed loop with one client: `limon check` on each
file of the workload in turn, one subprocess at a time, whole rounds until
--seconds have passed.  Every verdict is scored against the answer known by
construction.  This process never imports limon and never holds a corpus,
so the peak RSS that os.wait4 reports for a check is the check's own.
calibrate.py runs after every set-up and every check, and the timing
metrics are wall times scaled to a machine on which it takes
CAL_REFERENCE_S: the machine this benchmark was built on ran the same check
anywhere from 0.39 s to 0.70 s within one minute.

With --trace 1 it sets up once and times `limon check` on a 4-op file.
Then, for every file that is not a stream, it alternates untraced checks
with traced ones (tracer.py, which times the layers in process) and runs
tracer.py once more to count.  Spans go to out/spans-<workload>-seed<seed>.json.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics of BENCHMARK.json for the chosen mode.  `failed`
counts confident wrong answers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
CAL_REFERENCE_S = 0.2
STARTUP_REPEATS = 5
TRACE_REPEATS = 2
CHECK_TIMEOUT_S = 30
CHILD_TIMEOUT_S = 150
LIMON = [sys.executable, "-c", "import sys; from limon.cli import main; sys.exit(main())"]
TINY_HISTORY = "adt stack\npush 1 0 1\npush 2 2 3\npop 2 4 5\npop 1 6 7\n"
TRACEBACK = b"Traceback (most recent call last)"

ADTS = ("stack", "queue", "set", "multiset")
PREPROCESS_STEPS = {
    "stack": ("differentiate", "complete", "overlap", "value_view"),
    "queue": ("differentiate", "complete", "value_view"),
    "set": ("events",),
    "multiset": ("events",),
}
ADT_COUNTS = {
    "stack": ("renamed", "completed_pops", "overlap_dropped", "pop_empties",
              "rounds", "extremes_peeled", "splits"),
    "queue": ("renamed", "completed_pops"),
    "set": (),
    "multiset": (),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stdin: Path | None, stdout: Path, stderr: Path,
              timeout: float) -> tuple[float, float, int, bool]:
    """Run one process to its end: (wall s, peak RSS MB, exit code, timed out).

    os.wait4 gives the child's own resource usage; the alarm kills a child
    that runs past the timeout without a second thread or a polling loop.
    """
    timed_out = False
    with open(stdin or os.devnull, "rb") as fin, open(stdout, "wb") as fout, \
            open(stderr, "wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, env=child_env())

        def kill(signum, frame):
            nonlocal timed_out
            timed_out = True
            proc.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode, timed_out


def stdout_verdict(out: bytes, verbose: bool) -> bool | None:
    """The verdict stdout states, or None when it states none."""
    text = out.decode("utf-8", "replace").strip()
    if not verbose:
        return {"linearizable": True, "unlinearizable": False}.get(text)
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    if not isinstance(payload, dict) or not isinstance(payload.get("linearizable"), bool):
        return None
    if payload["linearizable"] is False and not isinstance(payload.get("witness"), dict):
        return None
    return payload["linearizable"]


def score(expected: bool, verbose: bool, code: int, out: bytes, err: bytes,
          timed_out: bool) -> str:
    """Classify one run as decided, wrong or undecided.

    Decided: exit code and stdout both give the known answer in time.
    Wrong (a confident wrong answer): a traceback; exit 2, since every input
    is well formed; exit 0 or 1 whose verdict is not the known one, or
    disagrees with stdout.  Undecided: timeout, exit 3 (an explicit
    refusal), or death by a signal.
    """
    if TRACEBACK in err:
        return "wrong"
    if timed_out or code not in (0, 1, 2):
        return "undecided"
    if code == 2:
        return "wrong"
    said = stdout_verdict(out, verbose)
    return "decided" if said is (code == 0) and said is expected else "wrong"


class Bench:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.work = OUT / f"work-{os.getpid()}"
        self.corpus = self.work / "corpus"
        self.last_cal = 0.0  # the latest calibration, in s

    def child(self, argv: list[str], stdin: Path | None = None,
              timeout: float = CHILD_TIMEOUT_S) -> tuple[float, float, int, bool, bytes, bytes]:
        out, err = self.work / "stdout", self.work / "stderr"
        wall, rss, code, timed_out = run_child(argv, stdin, out, err, timeout)
        return wall, rss, code, timed_out, out.read_bytes(), err.read_bytes()

    def setup(self) -> float:
        """Generate the corpora into a fresh directory; returns the wall time."""
        shutil.rmtree(self.corpus, ignore_errors=True)
        wall, _, code, timed_out, _, err = self.child(
            [sys.executable, str(HERE / "corpus.py"), self.workload, str(self.seed),
             str(self.corpus)])
        if code != 0 or timed_out:
            raise RuntimeError(f"corpus set-up failed (exit {code}):\n{err.decode()}")
        return wall

    def manifest(self) -> list[dict]:
        return json.loads((self.corpus / "manifest.json").read_text())

    def check(self, entry: dict) -> dict:
        path = self.corpus / entry["file"]
        args = ["check", "-", "--stream"] if entry["stream"] else ["check", str(path)]
        if entry["verbose"]:
            args.append("--verbose")
        wall, rss, code, timed_out, out, err = self.child(
            LIMON + args, stdin=path if entry["stream"] else None, timeout=CHECK_TIMEOUT_S)
        outcome = score(entry["expected"], entry["verbose"], code, out, err, timed_out)
        if outcome != "decided":
            print(f"{entry['file']}: {outcome} (exit {code}, expected "
                  f"{'linearizable' if entry['expected'] else 'unlinearizable'}): "
                  f"{out.decode(errors='replace').strip()[:160]} "
                  f"{err.decode(errors='replace').strip()[-300:]}", file=sys.stderr)
        return {"file": entry["file"], "ops": entry["ops"], "wall": wall, "rss_mb": rss,
                "outcome": outcome}

    def startup(self) -> float:
        """Median wall time of `limon check` on a 4-op file."""
        (self.corpus / "tiny.txt").write_text(TINY_HISTORY)
        entry = {"file": "tiny.txt", "ops": 4, "expected": True, "verbose": False,
                 "stream": False}
        return statistics.median(self.check(entry)["wall"] for _ in range(STARTUP_REPEATS))

    def calibrate(self) -> float:
        """Wall time of calibrate.py: how fast the machine runs right now."""
        wall, _, code, timed_out, _, err = self.child([sys.executable, str(HERE / "calibrate.py")])
        if code != 0 or timed_out:
            raise RuntimeError(f"calibrate.py failed (exit {code}):\n{err.decode()}")
        return wall

    def scale(self, wall: float) -> float:
        """Scale a wall time just measured to the reference machine speed.

        The factor is CAL_REFERENCE_S over the mean of the calibrations just
        before and just after the measurement.
        """
        before, self.last_cal = self.last_cal, self.calibrate()
        return wall * CAL_REFERENCE_S * 2 / (before + self.last_cal)

    def measure(self, seconds: float) -> dict:
        self.last_cal = self.calibrate()
        setups = []
        for _ in range(SETUP_REPEATS):
            wall = self.setup()
            setups.append({"wall": wall, "scaled": self.scale(wall)})
        manifest = self.manifest()
        self.startup()  # warm the interpreter's files and bytecode before timing
        runs: list[dict] = []
        t0 = time.perf_counter()
        while not runs or time.perf_counter() - t0 < seconds:
            for entry in manifest:
                run = self.check(entry)
                run["scaled"] = self.scale(run["wall"])
                runs.append(run)
        metrics, raw = {}, {}
        for out, key in ((metrics, "scaled"), (raw, "wall")):
            per_file = [statistics.median(r[key] for r in runs if r["file"] == entry["file"])
                        for entry in manifest]
            out["ops_per_s"] = sum(r["ops"] for r in runs) / sum(r[key] for r in runs)
            out["verdict_s.p50"] = statistics.median(per_file)
            out["setup_s"] = statistics.median(s[key] for s in setups)
        metrics["peak_rss_mb"] = max(r["rss_mb"] for r in runs)
        metrics["decided_share"] = outcome_share(runs, "decided")
        print(f"{self.workload} seed {self.seed}: {len(runs)} checks of {len(manifest)} files, "
              f"{len(setups)} set-ups")
        print(f"  verdict_s.p50: median over {len(manifest)} files of each file's median "
              f"over {len(runs) // len(manifest)} checks; "
              f"wrong_verdict_share {outcome_share(runs, 'wrong'):.4f}")
        print("  uncalibrated: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        return finish(runs, metrics)

    def tracer(self, mode: str, entry: dict) -> tuple[float, dict]:
        """Run tracer.py on one file; returns its wall time and its result."""
        result = self.work / "tracer.json"
        result.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "tracer.py"), mode, str(self.corpus / entry["file"]),
                str(result)]
        if mode == "trace" and entry["verbose"]:
            argv.append("--verbose")
        wall, _, code, timed_out, _, err = self.child(argv)
        if timed_out or TRACEBACK in err or not result.exists():
            raise RuntimeError(f"tracer.py {mode} failed (exit {code}):\n{err.decode()}")
        return wall, json.loads(result.read_text())

    def trace(self) -> dict:
        """Untraced and traced checks alternate; each side keeps its best time."""
        setup_s = self.setup()
        manifest = self.manifest()
        startup = self.startup()
        runs, records, spans = [], [], []
        for entry in manifest:
            if entry["stream"]:
                continue
            record = {"file": entry["file"], "untraced_s": math.inf, "traced_s": math.inf}
            for run in range(TRACE_REPEATS):
                runs.append(self.check(entry))
                record["untraced_s"] = min(record["untraced_s"], runs[-1]["wall"])
                wall, traced = self.tracer("trace", entry)
                if wall < record["traced_s"]:
                    record["traced_s"] = wall
                    record["durations"] = span_durations(traced["spans"])
                base = len(spans)
                for span in traced["spans"]:
                    span.update(id=base + span["id"], run=run,
                                parent=None if span["parent"] is None else base + span["parent"])
                spans.extend(traced["spans"])
            record["counts"] = self.tracer("count", entry)[1]["counts"]
            records.append(record)
        spans_path = OUT / f"spans-{self.workload}-seed{self.seed}.json"
        spans_path.write_text(json.dumps(spans))
        print(f"{self.workload} seed {self.seed}: set-up {setup_s:.3f} s, "
              f"{len(spans)} spans in {spans_path.relative_to(ROOT)}")
        return finish(runs, layer_metrics(manifest, records, startup))


def span_durations(spans: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for span in spans:
        out[span["name"]] = out.get(span["name"], 0.0) + span["end"] - span["start"]
    return out


def outcome_share(runs: list[dict], outcome: str) -> float:
    return sum(r["outcome"] == outcome for r in runs) / len(runs)


def layer_metrics(manifest: list[dict], records: list[dict], startup: float) -> dict:
    """Per-layer metrics: span times and counts summed over the files of each ADT."""
    by_file = {r["file"]: r for r in records}
    metrics: dict[str, float] = {}
    for adt in ADTS:
        files = [by_file[e["file"]] for e in manifest if e["adt"] == adt and not e["stream"]]

        def seconds(name: str) -> float:
            return sum(r["durations"].get(name, 0.0) for r in files)

        def count(name: str) -> int:
            return sum(r["counts"].get(name, 0) for r in files)

        for name in ("parse", "validate", "preprocess", *PREPROCESS_STEPS[adt], "check"):
            metrics[f"{adt}.{name}.s"] = seconds(name)
        if adt in ("set", "multiset"):
            metrics[f"{adt}.core.s"] = seconds("core")
        else:
            metrics[f"{adt}.core.s"] = seconds("check") - seconds("preprocess")
        for name in ("core.work", "values", *ADT_COUNTS[adt]):
            metrics[f"{adt}.{name}"] = count(name)
    metrics["stack.work_exponent"] = work_exponent(manifest, by_file)
    metrics["cli.startup_s"] = startup
    metrics["cli.outside_s"] = sum(
        r["untraced_s"] - r["durations"].get("parse", 0.0) - r["durations"].get("check", 0.0)
        for r in records)
    metrics["trace.overhead_s"] = sum(r["traced_s"] - r["untraced_s"] for r in records)
    return metrics


def work_exponent(manifest: list[dict], by_file: dict) -> float:
    """k in work ~ n^k between the two largest sizes of a size ladder; 0 without one."""
    ladder = sorted((e["ladder"], by_file[e["file"]]["counts"]["core.work"])
                    for e in manifest if e["ladder"])
    if len(ladder) < 2:
        return 0.0
    (n1, w1), (n2, w2) = ladder[-2:]
    return math.log(w2 / w1) / math.log(n2 / n1)


def finish(runs: list[dict], metrics: dict) -> dict:
    failed = sum(r["outcome"] == "wrong" for r in runs)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "limon" / "__init__.py").is_file():
        print(f"run.py: no limon sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        report = bench.trace() if args.trace else bench.measure(args.seconds)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(report["metrics"]) != {m["name"] for m in declared}:
        print(f"run.py: metrics differ from BENCHMARK.json: "
              f"{sorted(set(report['metrics']) ^ {m['name'] for m in declared})}", file=sys.stderr)
        return 1
    report["metrics"] = {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
                         for m in declared}
    for name, m in report["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
