"""fourfold benchmark: seeded closed-loop workloads with answer checks.

    python3 perfbench/run.py --workload ranks-deep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from src/.
With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics of a closed loop that runs whole cycles of the seeded mix
for --seconds.  With --trace 1 it holds the per-layer metrics of a fixed op
list (whole cycles, sized by --seconds), run once plain and once traced.
`--workload all` runs every workload in turn.
Exit codes: 0 done (a failed or wrong operation is reported, not fatal),
2 the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
#: Seconds one cycle of each workload takes at the seed commit on a 2-vCPU
#: Xeon at 2.0 GHz; it sizes the fixed op list of a traced run.
NOMINAL_CYCLE_S = {"ranks-deep": 3.5, "verify-deep": 9.8, "cli-mix": 2.6}


def child_env() -> dict:
    # verify ops pass --budget; an inherited FOURFOLD_BUDGET must not change them
    env = {k: v for k, v in os.environ.items() if k not in ("FOURFOLD_BUDGET", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn_wait(argv, stdout, stderr=None):
    """Run a child to completion; (exit code, seconds, peak RSS in kB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


# -- one workload, one phase -------------------------------------------------


def run_worker(seed, seconds, cycles, traced):
    """ranks-deep: the ops run in one worker process; (records, kB, probes,
    set-up seconds)."""
    request = json.dumps({"seed": seed, "seconds": seconds, "cycles": cycles, "trace": traced})
    out_path = WORK / f"worker-{os.getpid()}.json"
    with open(out_path, "w+b") as out:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=out, env=child_env(), cwd=ROOT,
        )
        proc.stdin.write(request.encode())
        proc.stdin.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        body = out.read()
    out_path.unlink()
    if proc.returncode:
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(body)
    return result["records"], usage.ru_maxrss, result["probes"], result["setup_s"]


def cli_runner(traced, stems):
    """execute(op) for the CLI workloads: one fresh process per op; with
    `traced`, a {"plain", "traced"} pair of back-to-back runs."""
    out_path = WORK / f"out-{os.getpid()}"
    err_path = WORK / f"err-{os.getpid()}"
    report_path = WORK / f"spans-{os.getpid()}.json"

    def run_op(op, argv):
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            code, seconds, rss_kb = spawn_wait(argv, out, err)
            out.seek(0)
            stdout = out.read()
            err.seek(0)
            stderr = err.read().decode(errors="replace").strip().splitlines()
        record = {"op": op["argv"], "latency_s": seconds, "rss_kb": rss_kb, "exit_code": code}
        try:
            payload = json.loads(stdout)
        except ValueError:
            record.update(status="crash", error=stderr[-1][:200] if stderr else f"exit {code}")
        else:
            try:
                answer = reference.check_cli(op, code, payload, stems)
                record.update(status="ok", answer=reference.digest(answer))
            except reference.WrongAnswer as exc:
                record.update(status="wrong", error=str(exc)[:200])
        return record

    def execute(op):
        record = run_op(op, [sys.executable, "-m", "fourfold.cli"] + op["argv"])
        if not traced:
            return record
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(report_path)] + op["argv"]
        pair = {"plain": record, "traced": run_op(op, argv)}
        with open(report_path) as fh:
            pair["traced"]["trace"] = json.load(fh)
        report_path.unlink()
        return pair

    return execute


def run_phase(workload, seed, seconds, cycles, traced):
    """Run one phase for `seconds` or `cycles`; returns (records, peak RSS in
    MB, overflow probe records, set-up seconds sampled over an untraced run)."""
    if workload == "ranks-deep":
        records, rss_kb, probes, setup_s = run_worker(seed, seconds, cycles, traced)
        return records, rss_kb / 1024, probes, setup_s
    stems = workloads.random_stems(random.Random(f"stems:{seed}"), 30)
    stems_path = WORK / f"stems-{seed}-{os.getpid()}.txt"
    stems_path.write_text(reference.stems_text(stems))
    try:
        cycle_iter = workloads.cycles(workload, seed, (str(stems_path), stems))
        setup = None if traced else lambda: workloads.time_setup(child_env(), ROOT)
        records, setup_s = workloads.measure(cycle_iter, cli_runner(traced, stems), seconds, cycles, setup)
    finally:
        stems_path.unlink()
    return records, max(r.get("rss_kb", 0) for r in records) / 1024, [], setup_s


def trace_cycles(workload, seconds) -> int:
    """Cycles a traced run replays: its two passes take about `seconds`."""
    return max(1, round(seconds / 2 / NOMINAL_CYCLE_S[workload]))


# -- metrics -----------------------------------------------------------------


def percentile(sorted_values, p: int) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def end_to_end(workload, records, rss_mb, setup_s) -> tuple:
    ok = sorted(r["latency_s"] for r in records if r["status"] == "ok")
    busy = sum(r["latency_s"] for r in records)
    p = workloads.TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(ok) / busy,
        "latency_p50_s": percentile(ok, 50),
        "latency_tail_s": percentile(ok, p),
        "peak_rss_mb": rss_mb,
    }
    beyond = len(ok) - -(-p * len(ok) // 100)
    return metrics, {"latency_tail_percentile": p, "latency_samples": len(ok), "samples_beyond_tail": beyond}


def per_layer(workload, untraced, traced) -> tuple:
    """Per-layer metrics of a traced replay; (metrics, problems found)."""
    problems = []
    total = spans.empty_summary()
    import_s = spawn_s = 0.0
    for i, (a, b) in enumerate(zip(untraced, traced)):
        if (a["status"], a.get("answer")) != (b["status"], b.get("answer")):
            problems.append(f"op {i}: traced answer differs from untraced answer")
        trace = b["trace"]
        if workload != "ranks-deep":
            import_s += trace["import_s"]
            spawn_s += b["latency_s"] - trace["wall_s"]
            trace = trace["summary"]
        if trace["span_s"] > b["latency_s"]:
            problems.append(f"op {i}: self times sum to more than the op's wall time")
        spans.merge(total, trace)
    busy = sum(r["latency_s"] for r in traced)
    metrics = {name: total[name] for name in total if name != "span_s"}
    metrics["cli.import_s"] = import_s
    metrics["cli.spawn_s"] = spawn_s
    rows = total["oracle.rows"]
    metrics["oracle.pivot_ratio"] = total["oracle.rank"] / rows if rows else 0.0
    metrics["share.startup"] = (import_s + spawn_s) / busy
    for layer in spans.LAYERS:
        metrics[f"share.{layer}"] = total[f"{layer}.self_s"] / busy
    metrics["trace_overhead"] = busy / sum(r["latency_s"] for r in untraced)
    metrics["fail_ratio"] = sum(r["status"] != "ok" for r in traced) / len(traced)
    return metrics, problems


def declared_units(trace) -> dict:
    """{metric: unit} of the end-to-end or per-layer list in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def context(workload, seed, records, extra) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "fourfold").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sources.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    ctx = {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "source_sha256": sources.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ops": len(records),
    }
    ctx.update(extra)
    return ctx


def run_workload(workload, seed, seconds, trace) -> dict:
    problems = []
    if not trace:
        records, rss_mb, probes, setup_s = run_phase(workload, seed, seconds, None, False)
        metrics, extra = end_to_end(workload, records, rss_mb, statistics.median(setup_s))
    else:
        # a fixed op list, so counts repeat exactly from one commit to the next
        cycles = trace_cycles(workload, seconds)
        pairs, _, probes, _ = run_phase(workload, seed, None, cycles, True)
        records = [pair["traced"] for pair in pairs]
        metrics, problems = per_layer(workload, [pair["plain"] for pair in pairs], records)
        metrics["ranks.probes_failed"] = sum(r["status"] == "crash" for r in probes)
        extra = {"cycles": cycles}
    if probes:
        extra["overflow_probes_failed"] = sum(r["status"] == "crash" for r in probes)
    units = declared_units(trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    failed = [r for r in records if r["status"] != "ok"]
    print("context: " + json.dumps(context(workload, seed, records, extra)))
    for name, value in metrics.items():
        print(f"  {workload} {name} = {value:.6g} {units[name]}")
    if not trace:
        print(f"  {workload} fail_ratio = {len(failed) / len(records):.6g} ({len(failed)}/{len(records)})")
    for r in failed:
        print(f"failed op ({r['status']}): {json.dumps(r['op'])} exit={r.get('exit_code')} error={r['error']}")
    for r in probes:
        args = ", ".join(map(str, r["op"]["args"]))
        print(f"overflow probe ({r['status']}): growth_report({args}) {r.get('error', '')}".rstrip())
    for problem in problems:
        print(f"trace check failed: {problem}")
    return {
        "correct": not any(r["status"] == "wrong" for r in records + probes) and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fourfold" / "__init__.py").is_file():
        print(f"error: no fourfold package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        # one untimed import compiles the package's bytecode, as an install would
        spawn_wait([sys.executable, "-c", "import fourfold.cli"], subprocess.DEVNULL)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps(result))
    finally:
        for path in WORK.glob(f"*-{os.getpid()}*"):
            path.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
