"""Self-test of the benchmark itself (not of foulkes).

    python3 perfbench/selftest.py

Checks, with one short run per case:
1. every workload, with ``--trace 0`` and ``--trace 1``, prints as its last
   line a result with exactly the keys ``correct``, ``attempted``, ``failed``
   and ``metrics``, passes, and emits every metric BENCHMARK.json names for
   that mode, with the unit BENCHMARK.json gives it;
2. a deliberately wrong recorded answer is counted as a failure, not passed;
3. run where only BENCHMARK.json and the benchmark's files exist (no
   ``src/``), the benchmark exits non-zero without printing a result.
Exits 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / HERE.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            code, result, _ = run(args)
            tag = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None, f"{tag}: exits 0 with a result line")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: correct, nothing failed")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(got == want, f"{tag}: every {group} metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{tag}: numeric values")

    answers = json.loads((HERE / "answers.json").read_text())
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        wrong = Path(tmp) / "answers.json"
        recorded = answers["rules"]["0"]
        bad = {**answers, "rules": {**answers["rules"], "0": ["0" * 16] + recorded[1:]}}
        wrong.write_text(json.dumps(bad))
        code, result, _ = run(["--workload", "rules", "--seed", "0", "--seconds", "1",
                               "--trace", "0", "--answers", str(wrong)])
        expect(result is not None and result["failed"] >= 1 and not result["correct"],
               "a wrong recorded answer is counted as a failure")

        bare = Path(tmp) / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(["--workload", "rules", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare)
        expect(code != 0 and result is None, "without src/ it exits non-zero, no result")

    print("selftest:", "FAILED " + str(len(failures)) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
