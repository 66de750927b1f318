"""Benchmark of adrtag on paper-shaped synthetic data.

    python3 perfbench/run.py --workload pretrain|finetune|tag|all --seed N \\
        [--seconds S] [--trace 0|1]

Run it from the root of a checkout that holds ``src/adrtag``. It generates the
seed's inputs under ``.perfbench/``, runs the workload in a fresh child
process (so ``peak_rss_mb`` is that workload's own), prints one line per
metric and check, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

``--write-golden`` re-records ``golden.json``, the outputs the checks compare
against, for every input family. Run it only on a commit whose outputs are
known to be right.

See README.md for the metrics, the workloads and how to quote a change.
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

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402

# --seed N selects input family N % FAMILIES; golden.json holds the seed
# commit's outputs for every family.
FAMILIES = 32
WORKLOAD_PARTS = {
    "pretrain": ("raw", "conll"),
    "finetune": ("ckpt", "conll"),
    "tag": ("ckpt", "conll"),
}
RUN_LIMIT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env():
    """The environment with BLAS threads capped at the usable core count."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = 0
        env[var] = str(current if 1 <= current <= nproc else nproc)
    return env


def run_workload(workload, seed, seconds, trace, mode="run"):
    """Generate the inputs, run one workload in a child process and return
    the child's result dict."""
    started = time.monotonic()
    family = seed % FAMILIES
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT_DIR)
    try:
        data = os.path.join(work, "data")
        digests = gen.generate(family, data, WORKLOAD_PARTS[workload])
        inputs = os.path.join(work, "inputs.json")
        with open(inputs, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, sort_keys=True)
        out = os.path.join(work, "result.json")
        cmd = [
            sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
            "--workload", workload, "--data", data, "--inputs", inputs, "--work", work,
            "--seed", str(seed), "--family", str(family), "--seconds", str(seconds),
            "--trace", str(trace), "--mode", mode, "--out", out,
        ]
        budget = RUN_LIMIT_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=budget)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload}: no result within {RUN_LIMIT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{workload}: child exited with code {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["inputs"] = digests
        if trace:
            kept = os.path.join(OUT_DIR, "traces", f"{workload}-seed{seed}.jsonl")
            os.makedirs(os.path.dirname(kept), exist_ok=True)
            os.replace(result["trace_file"], kept)
            result["trace_file"] = kept
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(result):
    """Human-readable lines for one workload's result."""
    w = result["workload"]
    env = result["env"]
    yield (f"[{w}] seed={env['seed']} family={env['family']} nproc={env['nproc']} "
           f"cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']} "
           f"blas={env['blas']} {env['blas_version']} threads={env['blas_threads']}")
    for c in result["checks"]:
        yield f"[{w}] check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})"
    for e in result["errors"]:
        yield f"[{w}] error: {e}"
    for target in result.get("missing", []):
        yield f"[{w}] missing trace target: {target}"
    d = result["details"]
    yield (f"[{w}] setups={len(d['setup_s'])} units={len(d['unit_s'])} "
           f"tokens_per_unit={d['tokens_per_unit']} predict_calls={d['predict_calls']}")
    ops = " ".join(f"{kind}={a}/{f}" for kind, (a, f) in result["ops"].items())
    yield f"[{w}] operations attempted/failed: {ops}"
    for name, m in result.get("metrics", {}).items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        yield f"[{w}] {name} = {value} {m['unit']}"
    if d["unit_s"] and "trace_file" not in result:
        if w == "tag":
            rate = statistics.median(d["tweets_per_unit"] / t for t in d["unit_s"])
            yield f"[{w}] eval_tweets_per_s = {rate:.6g} 1/s"
        else:
            rate = statistics.median(d["tokens_per_unit"] / t for t in d["unit_s"])
            yield f"[{w}] train_tokens_per_s = {rate:.6g} 1/s"


def write_golden(families):
    """Record every workload's outputs for ``families`` into golden.json."""
    path = os.path.join(BENCH_DIR, "golden.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            golden = json.load(fh)
    else:
        golden = {"families": FAMILIES, "workloads": {}}
    for family in families:
        for workload in WORKLOAD_PARTS:
            result = run_workload(workload, family, 0, 0, mode="golden")
            if not result["correct"]:
                raise BenchError(f"{workload} family {family}: checks failed: {result['checks']}")
            golden["workloads"].setdefault(workload, {})[str(family)] = {
                "inputs": result["inputs"], "outputs": result["outputs"],
            }
            print(f"golden {workload} family {family}: {result['outputs']}", flush=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(golden, fh, indent=1, sort_keys=True)
                fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description="adrtag benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOAD_PARTS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", metavar="FIRST-LAST",
                    help="re-record golden.json for input families FIRST..LAST")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "adrtag", "__init__.py")):
        sys.exit(f"error: {ROOT} holds no src/adrtag; run from a checkout of the repository")
    try:
        if args.write_golden:
            first, _, last = args.write_golden.partition("-")
            write_golden(range(int(first), int(last or first) + 1))
            return
        if args.workload is None:
            ap.error("--workload is required")
        names = list(WORKLOAD_PARTS) if args.workload == "all" else [args.workload]
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        sys.exit(f"error: {exc}")
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        for r in results:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
    for r in results:
        for line in report(r):
            print(line)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
