"""The foulkes benchmark: one command for every metric and the correctness gate.

    python3 perfbench/run.py --workload rules --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; ``src/`` is put on the path, so
nothing needs installing.  Workloads: ``rules``, ``verify-cli``, ``coeff``
(see NOTES.md).  A run plays the seeded request list in several sessions,
each a fresh worker process (worker.py); the number of sessions is fixed
per 20 seconds of ``--seconds`` (``SESSIONS_PER_20S``), so both sides of a
comparison do the same work.

Times are in reference seconds (speed.py): each request's latency, and
each set-up probe, is scaled by a calibration unit timed right before and
after it (and, in the worker's own process, during it), so the machine's
own changes of speed drop out.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced sessions and prints the per-layer metrics plus the
tracing overhead.  Either way the first session's answers go through the
correctness gate outside the timed region, every session's answer digests
must agree with each other and, for a seed in answers.json, with the digests
recorded there.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--record`` stores the digests of this seed in answers.json instead of
comparing with them; ``--answers PATH`` compares with another file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans as tracing
import speed
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

# Sessions per 20 seconds of --seconds: about 20 s of wall time on the
# 2-core x86 box that defined the benchmark, and counts that put the tail
# percentile in the middle of a group of requests of the same cost (the
# 11th largest of 7 sessions is the 4th of the 7 second-dearest requests).
SESSIONS_PER_20S = {"rules": 7, "verify-cli": 3, "coeff": 7}
PROBES_PER_SESSION = 2
RUN_LIMIT_S = 165.0

END_TO_END = {
    "run_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


class Run:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        self.env = _env()
        self.count = 0

    def spawn(self, *extra) -> tuple[float, subprocess.Popen]:
        """Start a worker; return its set-up time (until it says ready)."""
        self.count += 1
        workdir = os.path.join(self.workdir, f"w{self.count}")
        os.mkdir(workdir)
        cmd = [
            sys.executable, str(WORKER), "--workload", self.args.workload,
            "--seed", str(self.args.seed), "--workdir", workdir, *extra,
        ]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        ready = proc.stdout.readline().strip() == "ready"
        setup = time.perf_counter() - t0
        return (setup if ready else None), proc

    def finish(self, proc) -> bool:
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("worker timed out", file=sys.stderr)
            return False
        if proc.returncode != 0:
            print(f"worker exited {proc.returncode}:\n{err[-2000:]}", file=sys.stderr)
            return False
        return True

    def probe(self) -> float | None:
        """Set-up time of one worker that exits once ready, in reference seconds."""
        before = speed.sample()
        setup, proc = self.spawn("--probe", "--out", os.devnull)
        if not self.finish(proc) or setup is None:
            return None
        return setup * speed.factor(before, speed.sample())

    def session(self, traced: bool, gate: bool, readme: dict) -> dict | None:
        out = os.path.join(self.workdir, f"result-{self.count + 1}.json")
        extra = ["--out", out, "--readme-digests", json.dumps(readme)]
        extra += ["--trace"] * traced + ["--gate"] * gate
        setup, proc = self.spawn(*extra)
        if not self.finish(proc) or setup is None:
            return None
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    Each CPU of the machine that defined the benchmark changes speed on its
    own, so a calibration unit only tells the speed of the CPU it ran on;
    with everything on one CPU, the units around a request, and the request
    itself (a CLI child too), run on the same one.  The CPU is the one the
    scheduler started this process on."""
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    try:  # the CPU this process runs on now: field 39 of /proc/self/stat
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(allowed)
    os.sched_setaffinity(0, {cpu if cpu in allowed else min(allowed)})


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--answers", default=str(HERE / "answers.json"))
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "foulkes" / "__init__.py").is_file():
        print(f"error: no foulkes sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(args.answers, encoding="utf-8") as fh:
        recorded = json.load(fh)
    seed_key = str(args.seed)
    want = None if args.record else recorded.get(args.workload, {}).get(seed_key)
    readme = {} if args.record else recorded.get("readme", {})

    sessions = max(1, round(SESSIONS_PER_20S[args.workload] * args.seconds / 20))
    if args.trace:
        sessions = max(2, sessions)
    requests = wl.REQUESTS[args.workload](args.seed)

    pin_to_one_cpu()
    run = Run(args)
    try:
        setups, results = [], []
        for i in range(sessions):
            setups += [run.probe() for _ in range(PROBES_PER_SESSION)]
            traced = bool(args.trace) and i % 2 == 1
            results.append((traced, run.session(traced, gate=(i == 0), readme=readme)))
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    # Failures: a request fails in a session when it raised or exited non-zero,
    # failed a gate check, or answered differently from the first session or
    # from the recorded digest.  A session that died fails all its requests.
    attempted = failed = 0
    first = results[0][1]
    reasons = []
    for s, (_, result) in enumerate(results):
        attempted += len(requests)
        if result is None:
            failed += len(requests)
            reasons.append(f"session {s}: worker failed")
            continue
        for i in range(len(requests)):
            why = result["errors"][i] or "; ".join(result["findings"][i])
            d = result["digests"][i]
            if not why and first is not None and d != first["digests"][i]:
                why = "answer differs from session 0"
            if not why and want is not None and d != want[i]:
                why = "answer differs from the recorded answer"
            if why:
                failed += 1
                reasons.append(f"session {s} request {i} {requests[i]}: {why}")
    broken_setups = sum(1 for s in setups if s is None)
    failed += broken_setups
    attempted += broken_setups

    for line in reasons[:20]:
        print("FAIL", line)

    ok = [(traced, r) for traced, r in results if r is not None]
    plain = [r for traced, r in ok if not traced]
    metrics = {}
    if plain and all(s is not None for s in setups):
        pooled = [x for r in plain for x in r["latencies"]]
        tail_value, tail_pct = tail(pooled)
        e2e = {
            "run_s": statistics.median(r["wall_s"] for r in plain),
            "latency_p50_s": statistics.median(pooled),
            "latency_tail_s": tail_value,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        print(f"workload={args.workload} seed={args.seed} sessions={len(plain)} "
              f"requests/session={len(requests)}")
        for name, value in e2e.items():
            print(f"  {name:16s} {value:12.6f} {END_TO_END[name]}")
        print(f"  latency_tail_s is p{tail_pct:.1f} of {len(pooled)} request latencies")
        print(f"  times in reference seconds; raw wall time of a session "
              f"{statistics.median(r['raw_wall_s'] for r in plain):.6f} s, calibration unit "
              f"{1000 * statistics.median(r['unit_s'] for r in plain):.4f} ms "
              f"(reference {1000 * speed.REF_UNIT_S:.4f} ms)")
        print(f"  fail_frac        {failed / attempted:12.6f} ({failed} of {attempted})")
        print(f"  guard_warnings   {sum(r['guard_warnings'] for r in plain)}")
        if not args.trace:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    traced_runs = [r for traced, r in ok if traced]
    if args.trace and traced_runs and plain:
        per_session = []
        for r in traced_runs:
            scale = r["wall_s"] / r["raw_wall_s"]  # the session's mean scale
            m = tracing.layer_metrics(r["trace"])
            per_session.append({
                k: v * scale if tracing.LAYER_METRICS.get(k) == "s" else v for k, v in m.items()
            })
        layers = {k: statistics.median(m[k] for m in per_session) for k in per_session[0]}
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced_runs)
            - statistics.median(r["wall_s"] for r in plain)
        )
        same = all(r["digests"] == plain[0]["digests"] for r in traced_runs)
        print(f"  traced answers equal untraced answers: {'yes' if same else 'NO'}")
        for name, unit in tracing.LAYER_METRICS.items():
            print(f"  {name:32s} {layers[name]:14.6f} {unit}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in tracing.LAYER_METRICS.items()}

    if args.record and failed == 0 and first is not None:
        recorded.setdefault(args.workload, {})[seed_key] = first["digests"]
        if args.workload == "verify-cli":
            for req, d in zip(requests, first["digests"]):
                if req["readme"]:
                    recorded.setdefault("readme", {})[" ".join(req["argv"])] = d
        with open(args.answers, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded answers for {args.workload} seed {args.seed}")

    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
