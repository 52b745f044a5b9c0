"""End-to-end and per-layer benchmark of abdukit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports abdukit from ``src/`` there
and nowhere else.  Workloads (see ``workloads.py``):

  abduce-small  random ground abductive programs, five queries each
  abduce-wide   diagnosis programs with 3-5 abducible causes
  kb-session    a read/write session over a relational knowledge base

Every run happens in fresh worker processes, one at a time (closed loop,
one client, no threads), so no cache carries over between runs.  Each
answer is then checked, in another process and outside the timed region,
against an oracle route that does not use the update transformation.

With ``--trace 0`` the command prints the end-to-end metrics; set-up is
repeated in separate processes and reported as a median.  With
``--trace 1`` it runs the workload untraced and traced and prints the
per-layer metrics, derived from spans that the traced worker records
around the library's public functions, plus the tracing overhead.  The
last line of output is one JSON object; the exit code is non-zero when
any answer is wrong, any query failed, or the inputs were not the same
in two processes with different ``PYTHONHASHSEED``.  ``--workload all``
runs the three workloads in turn; without tracing it ends with a table
of one row per workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("abduce-small", "abduce-wide", "kb-session")
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170


class WorkerFailed(Exception):
    pass


def _worker(role: str, args: argparse.Namespace, hash_seed: int, extra=(), stdin=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    cmd = [sys.executable, str(HERE / "worker.py"), role, args.workload, str(args.seed), str(args.seconds)]
    proc = subprocess.run(
        cmd + list(extra),
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerFailed("%s worker failed:\n%s" % (role, proc.stderr.strip()))
    return json.loads(proc.stdout.splitlines()[-1])


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def _measured_run(args, hash_seed: int, spans_file: str | None = None) -> tuple[dict, dict]:
    """A run worker and the oracle check of its answers."""
    extra = [spans_file] if spans_file else []
    run = _worker("run", args, hash_seed, extra)
    check = _worker("check", args, hash_seed + 1, stdin=json.dumps({"answers": run["answers"]}))
    return run, check


def _verdict(run: dict, check: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one checked run."""
    problems = []
    errors = [a for a in run["answers"] if isinstance(a, dict)]
    bad = {m["query"] for m in check["mismatches"]}
    bad |= {i for i, a in enumerate(run["answers"]) if isinstance(a, dict)}
    if errors:
        problems.append("%d queries raised, first: %s" % (len(errors), errors[0]["error"]))
    if check["mismatches"]:
        m = check["mismatches"][0]
        problems.append(
            "%d answers differ from the oracle, first: query %d (%s) expected %s got %s"
            % (len(check["mismatches"]), m["query"], m["op"], m["expected"], m["got"])
        )
    if check["checked"] != len(run["answers"]):
        problems.append("oracle checked %d of %d answers" % (check["checked"], len(run["answers"])))
    if check["digest"] != run["digest"]:
        problems.append("input digest differs between PYTHONHASHSEED values")
    return len(run["answers"]), len(bad), problems


def _qps(run: dict) -> float:
    return len(run["latencies"]) / run["wall_s"]


def end_to_end(args, hash_seed: int) -> tuple[dict, dict, tuple]:
    import workloads

    _worker("setup", args, hash_seed)  # compiles bytecode and warms the file cache
    setups = [_worker("setup", args, hash_seed)["setup_s"] for _ in range(SETUP_REPEATS)]
    run, check = _measured_run(args, hash_seed)
    setups.append(run["setup_s"])
    lat = sorted(run["latencies"])
    tail = workloads.TAIL_PERCENTILE[args.workload]
    attempted, failed, problems = _verdict(run, check)
    metrics = {
        "queries_per_s": (_qps(run), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "latency_tail_ms": (_percentile(lat, tail) * 1000.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    record = {
        "tail_percentile": tail,
        "queries": len(lat),
        "pool_exhausted": run["exhausted"],
        "failed_ratio": failed / attempted if attempted else 0.0,
        "setup_samples_s": setups,
    }
    return metrics, record, (run, attempted, failed, problems)


def per_layer(args, hash_seed: int) -> tuple[dict, dict, tuple]:
    import spans

    OUT.mkdir(exist_ok=True)
    spans_file = str(OUT / ("spans-%s-%d.json" % (args.workload, args.seed)))
    plain, plain_check = _measured_run(args, hash_seed)
    traced, traced_check = _measured_run(args, hash_seed, spans_file)
    query_s = sum(traced["latencies"])
    metrics = spans.analyse(spans_file, query_s)
    metrics["trace.queries"] = (len(traced["latencies"]), "count")
    metrics["trace.query_s"] = (query_s, "s")
    metrics["trace.overhead_qps"] = (_qps(traced) - _qps(plain), "1/s")
    a1, f1, p1 = _verdict(plain, plain_check)
    a2, f2, p2 = _verdict(traced, traced_check)
    record = {"spans_file": os.path.relpath(spans_file, ROOT), "untraced_qps": _qps(plain)}
    return metrics, record, (traced, a1 + a2, f1 + f2, p1 + p2)


def run_workload(args) -> tuple[bool, int, int, dict, dict]:
    """Measure one workload, record and print the result.

    Returns (correct, attempted, failed, metrics, record).
    """
    import workloads

    hash_seed = abs(args.seed) % (2**32 - 2)
    measure = per_layer if args.trace else end_to_end
    metrics, record, (run, attempted, failed, problems) = measure(args, hash_seed)
    record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "kernel": run["kernel"],
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "run_config": run["config"],
            "generator": workloads.PARAMS[args.workload],
            "input_digest": run["digest"],
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: v[0] for k, v in metrics.items()},
        }
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print("workload %s  kernel %s  python %s  nproc %s  seed %d  digest %s"
          % (args.workload, run["kernel"], record["python"], record["nproc"], args.seed,
             run["digest"][:16]))
    print("run_config %s" % run["config"])
    for name, (value, unit) in metrics.items():
        print("  %-26s %14.6g %s" % (name, value, unit))
    if not args.trace:
        print("  %-26s %14.6g %s" % ("failed_ratio", record["failed_ratio"], "fraction"))
        print("  tail percentile p%g over %d queries" % (record["tail_percentile"], record["queries"]))
    else:
        print("  untraced queries_per_s %.6g" % record["untraced_qps"])
    for p in problems:
        print("FAILED: %s: %s" % (args.workload, p), file=sys.stderr)
    return not problems, attempted, failed, metrics, record


def _summary(rows: list[tuple[str, dict, dict]]) -> None:
    """One row per workload: every metric in its own column, then the kernel."""
    names = list(rows[0][1])
    extra = ["failed_ratio"] if "failed_ratio" in rows[0][2] else []
    print("\n%-13s" % "workload" + "".join(" %16s" % n for n in names + extra) + "  kernel")
    print("%-13s" % "" + "".join(" %16s" % rows[0][1][n][1] for n in names)
          + "".join(" %16s" % "fraction" for _ in extra))
    for workload, metrics, record in rows:
        cells = [metrics[n][0] for n in names] + [record[n] for n in extra]
        print("%-13s" % workload + "".join(" %16.6g" % c for c in cells) + "  " + record["kernel"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="abdukit end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "abdukit" / "__init__.py").is_file():
        print("abdukit sources not found at %s; run from a repository checkout" % SRC, file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rows, correct, attempted, failed = [], True, 0, 0
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            ok, a, f, metrics, record = run_workload(one)
        except (WorkerFailed, subprocess.TimeoutExpired) as exc:
            print(str(exc), file=sys.stderr)
            return 1
        rows.append((name, metrics, record))
        correct, attempted, failed = correct and ok, attempted + a, failed + f
    if len(rows) > 1 and not args.trace:
        _summary(rows)

    def reported(metrics: dict) -> dict:
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    if len(rows) == 1:
        out_metrics = reported(rows[0][1])
    else:
        out_metrics = {"%s/%s" % (w, k): v for w, m, _ in rows for k, v in reported(m).items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
