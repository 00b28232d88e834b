#!/usr/bin/env python3
"""The hornsafe benchmark: builds perfbench from this checkout and runs one
workload. Run from the repository root:

  python3 perfbench/run.py --workload cold_check --seed 1 --seconds 35 --trace 0
  python3 perfbench/run.py --selftest

The last line of standard output is the JSON result
({"correct", "attempted", "failed", "metrics"}); the line before it is the
provenance stamp. Build output and diagnostics go to standard error.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
WORKLOADS = ("cold_check", "serve_editors", "fleet_sweep")
# One run (set-up + measuring + teardown) must end well inside 180 s.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench and the hornsafe CLI."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no hornsafe src/ tree next to perfbench/; "
            "run from a full checkout")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def git_stamp():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True).stdout
        return sha, bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(binary, seed):
    stamp = json.loads(subprocess.run([binary, "--provenance"],
                                      capture_output=True, text=True,
                                      check=True).stdout)
    sha, dirty = git_stamp()
    stamp.update({"git_sha": sha, "git_dirty": dirty, "seed": seed,
                  "nproc": os.cpu_count(), "cpu_model": cpu_model()})
    return stamp


def run_bench(binary, workload, seed, seconds, trace, extra=(),
              known_answers=None):
    """Runs one workload; returns (stdout lines, exit code)."""
    run_root = os.path.join(RUNS_DIR, str(os.getpid()))
    os.makedirs(run_root, exist_ok=True)
    trace_out = os.path.join(ROOT, ".bench_build", "traces",
                             "%s-seed%d.jsonl" % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--inputs", os.path.join(HERE, "inputs"),
           "--known-answers",
           known_answers or os.path.join(HERE, "known_answers.txt"),
           "--run-root", run_root, "--trace-out", trace_out, *extra]
    # Everything the run writes, its fleet workers' scratch included,
    # stays under the per-run root, which is removed however it ends.
    env = dict(os.environ, TMPDIR=run_root)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return [], 1
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    return proc.stdout.splitlines(), proc.returncode


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys \
        else None


def repeatable(lines):
    for line in lines:
        if line.startswith("repeatable: "):
            return json.loads(line[len("repeatable: "):])
    return None


def selftest(binary):
    """Same seed twice -> same ops and counts; another seed -> other
    inputs, still all correct; a corrupted known answer -> failed ops.
    Runs every workload at smoke size with fixed op counts."""
    ops = {"cold_check": 60, "serve_editors": 80, "fleet_sweep": 2}
    # Counts that depend on thread or process interleaving are not
    # compared: serve hit rates, fleet cross-program hits.
    ok = True
    started = time.monotonic()
    for w in WORKLOADS:
        extra = ["--smoke", "--ops", str(ops[w]), "--setup-reps", "1"]
        runs = [run_bench(binary, w, seed, 0, True, extra)
                for seed in (7, 7, 8)]
        results = [parse_result(lines) for lines, _ in runs]
        reps = [repeatable(lines) for lines, _ in runs]
        if any(r is None or not r["correct"] for r in results):
            log("selftest: %s: a run failed or was incorrect" % w)
            ok = False
            continue
        if reps[0] != reps[1]:
            log("selftest: %s: same seed, different ops or counts: %s vs %s"
                % (w, reps[0], reps[1]))
            ok = False
        if reps[0]["ops_digest"] == reps[2]["ops_digest"]:
            log("selftest: %s: a second seed did not change the inputs" % w)
            ok = False
        log("selftest: %s ok: %s" % (w, reps[0]))

    # The known-answer check must bite: flip one verdict.
    corrupted = os.path.join(ROOT, ".bench_build", "corrupted_answers.txt")
    with open(os.path.join(HERE, "known_answers.txt")) as f:
        text = f.read()
    with open(corrupted, "w") as f:
        f.write(text.replace("family/guarded_chain   safe",
                             "family/guarded_chain   unsafe"))
    lines, _ = run_bench(binary, "cold_check", 7, 0, False,
                         ["--smoke", "--ops", "60", "--setup-reps", "1"],
                         known_answers=corrupted)
    os.remove(corrupted)
    result = parse_result(lines)
    if result is None or result["failed"] == 0 or result["correct"]:
        log("selftest: a corrupted known answer went unnoticed")
        ok = False
    else:
        log("selftest: corrupted known answer detected: %d of %d ops failed"
            % (result["failed"], result["attempted"]))
    log("selftest: %s in %.1f s" % ("passed" if ok else "FAILED",
                                    time.monotonic() - started))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if args.selftest:
        return selftest(binary)
    lines, code = run_bench(binary, args.workload, args.seed, args.seconds,
                            args.trace == 1)
    result = parse_result(lines)
    if code != 0 or result is None:
        log("perfbench: %s produced no result (exit %d)"
            % (args.workload, code))
        return 1
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(provenance(binary, args.seed)))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
