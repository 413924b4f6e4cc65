"""One benchmark session in a fresh process.

run.py starts this script, which imports ``foulkes`` (and, on
``verify-cli``, makes the session's cache directory), prints ``ready`` so the
runner can time set-up, then plays the workload's request list as one client
in a closed loop: the next request goes out only after the previous answer
is back.  Module memos are shared by the requests of the session and die
with the process.

Right before every request and after the last one, and every 50 ms of its
own CPU time while a request runs in this process, it times a short
calibration unit
(speed.py), so each latency can be given in reference seconds, free of the
machine's own changes of speed.

It writes one JSON file: per-request latency in reference seconds, answer
digest and failure, the session's run time (the sum of those latencies), its
raw wall time and peak memory, the gate's findings (with ``--gate``)
and, with ``--trace``, the spans of this process and of its CLI children.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import warnings

import spans as tracing
import speed
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--gate", action="store_true")
    ap.add_argument("--probe", action="store_true", help="set up, report ready, exit")
    ap.add_argument("--readme-digests", default="{}")
    args = ap.parse_args()

    import foulkes  # noqa: F401  (set-up cost being measured)

    cache_dir = os.path.join(args.workdir, "cache")
    if args.workload == "verify-cli":
        os.makedirs(cache_dir)
    print("ready", flush=True)
    if args.probe:
        return 0

    requests = wl.REQUESTS[args.workload](args.seed)
    tracer = tracing.Tracer()
    if args.trace and args.workload != "verify-cli":
        tracing.install(tracer)

    if args.workload == "rules":
        execute = lambda req, index: wl.run_rules(req)  # noqa: E731
    elif args.workload == "coeff":
        session = wl.CoeffSession()
        execute = lambda req, index: session.run(req)  # noqa: E731
    else:
        env = dict(os.environ, FOULKES_CACHE_DIR=cache_dir)
        children: list[dict] = []

        def execute(req, index):
            cmd = wl.cli_command(req, args.trace, HERE)
            child_env = env
            if args.trace:
                span_file = os.path.join(args.workdir, f"spans-{index}.json")
                child_env = tracing.spawn_env({**env, tracing.SPAN_FILE_ENV: span_file})
            answer = wl.run_cli(cmd, child_env)
            if args.trace:
                size = len(answer["stdout"].encode())
                children.append({"span_file": span_file, "stdout_bytes": size})
            return answer

    latencies, results, errors, around, during = [], [], [], [], []
    guard_warnings = 0
    tracer.recording = True
    with speed.Ticker(active=args.workload != "verify-cli") as ticker:
        for index, req in enumerate(requests):
            around.append(speed.sample())
            tracer.request = index
            ticks, spent = len(ticker.units), ticker.spent
            t0 = time.perf_counter()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", RuntimeWarning)
                    result = execute(req, index)
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0 - (ticker.spent - spent))
            during.append(ticker.units[ticks:])
            guard_warnings += len(caught)
            results.append(result)
            errors.append(error)
        around.append(speed.sample())
    tracer.recording = False
    raw_wall = sum(latencies)
    latencies = [
        t * speed.factor(around[i], during[i], around[i + 1]) for i, t in enumerate(latencies)
    ]
    units = around + during
    who = resource.RUSAGE_CHILDREN if args.workload == "verify-cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    answers = []
    for req, result, error in zip(requests, results, errors):
        if error is not None:
            answers.append(None)
        elif args.workload == "rules":
            answers.append(wl.rules_answer(req, result))
        else:
            answers.append(result)
    if args.workload == "verify-cli":
        for i, answer in enumerate(answers):
            if answer is not None and answer["code"] != 0:
                errors[i] = f"exit code {answer['code']}"

    findings = [[] for _ in requests]
    if args.gate:
        readme = json.loads(args.readme_digests)
        extremes: dict = {}
        for i, (req, answer) in enumerate(zip(requests, answers)):
            if answer is None:
                continue
            try:
                if args.workload == "rules":
                    findings[i] = wl.check_rules(req, answer)
                elif args.workload == "coeff":
                    findings[i] = wl.check_coeff(req, answer, extremes)
                else:
                    findings[i] = wl.check_cli(req, answer, readme)
            except Exception as exc:  # a check that cannot run is a failed check
                findings[i] = [f"gate raised {type(exc).__name__}: {exc}"]

    out = {
        "wall_s": sum(latencies),
        "raw_wall_s": raw_wall,
        "unit_s": statistics.median(u for us in units for u in us),
        "latencies": latencies,
        "digests": [wl.digest(a) if a is not None else None for a in answers],
        "errors": errors,
        "findings": findings,
        "peak_rss_mb": peak_rss_mb,
        "guard_warnings": guard_warnings,
        "requests": requests,
    }
    if args.trace:
        if args.workload == "verify-cli":
            procs = []
            for child in children:
                with open(child["span_file"], encoding="utf-8") as fh:
                    dump = json.load(fh)
                dump["stdout_bytes"] = child["stdout_bytes"]
                procs.append(dump)
            table_bytes = sum(
                os.path.getsize(os.path.join(cache_dir, f)) for f in os.listdir(cache_dir)
            )
            procs.append({"spans": [], "table_bytes": table_bytes})
        else:
            tables = session.tables.values() if args.workload == "coeff" else ()
            procs = [
                {
                    "spans": tracer.spans,
                    "memo": tracing.memo_sizes(tables),
                    "guard_warnings": guard_warnings,
                }
            ]
        out["trace"] = procs
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
