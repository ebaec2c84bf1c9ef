"""ranks-deep worker: library calls in one process, one at a time.

Reads {"seed", "seconds", "cycles", "trace"} as JSON on stdin and writes
{"records": [...], "probes": [...], "setup_s": [...]} as JSON on stdout; with
"trace" each record is a {"plain", "traced"} pair of runs of one op, and
without it set-up is sampled over the run (`workloads.measure`).  Each
operation is timed around the library call alone; its answer is checked
afterwards, outside the timing.  The probes are growth_report at workloads.OVERFLOW_PROBES, run once
before the timed loop and checked like any op.
Run by run.py with the package on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time

import reference
import spans
import workloads


def one_line(exc: BaseException) -> str:
    text = f"{type(exc).__name__}: {exc}".strip().splitlines()
    return text[0][:200] if text else type(exc).__name__


def arguments(op, stems) -> list:
    """Call arguments of a ranks-deep op; stems is the bundled stems table."""
    fn, args = op["fn"], op["args"]
    if fn == "tensor_series":
        return [{1: args[0], 2: args[0]}, args[1]]
    if fn == "stable_homotopy_finite_pi1":
        return args + [stems]
    if fn == "load_stems_table":
        return [reference.stems_text(reference.stems_of(args[0]))]
    return args


def main() -> int:
    request = json.load(sys.stdin)
    import fourfold

    tracer = spans.Tracer() if request["trace"] else None
    names = ("homotopy_ranks", "growth_report", "pbw_identity_check", "quotient_series",
             "tensor_series", "stable_homotopy_finite_pi1", "load_stems_table")
    plain = {name: getattr(fourfold, name) for name in names}
    traced = {name: tracer.wrap(spans.layer_of(fn), name, fn) for name, fn in plain.items()} if tracer else {}
    stems = fourfold.bundled_stems_table()

    def run_op(op, entry):
        args = arguments(op, stems)
        record = {"op": op if op["fn"] != "load_stems_table" else {"fn": op["fn"]}}
        start = time.perf_counter()
        try:
            result = entry[op["fn"]](*args)
        except Exception as exc:  # an operation that crashes is a failed op
            record["latency_s"] = time.perf_counter() - start
            record.update(status="crash", error=one_line(exc), exit_code=None)
        else:
            record["latency_s"] = time.perf_counter() - start
            try:
                record.update(status="ok", answer=reference.digest(reference.check_library(op, result)))
            except reference.WrongAnswer as exc:
                record.update(status="wrong", error=one_line(exc), exit_code=None)
        return record

    def execute(op):
        if not tracer:
            return run_op(op, plain)
        # the same op plain and then traced, back to back, so that the
        # overhead ratio does not see the machine's speed drift
        pair = {"plain": run_op(op, plain)}
        uninstall = spans.install(tracer)
        try:
            pair["traced"] = run_op(op, traced)
        finally:
            uninstall()
        pair["traced"]["trace"] = tracer.take()
        return pair

    probes = [run_op({"fn": "growth_report", "args": list(args)}, plain) for args in workloads.OVERFLOW_PROBES]
    cycles = workloads.cycles("ranks-deep", request["seed"])
    setup = None if request["trace"] else workloads.time_setup
    records, setup_s = workloads.measure(cycles, execute, request["seconds"], request["cycles"], setup)
    json.dump({"records": records, "probes": probes, "setup_s": setup_s}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
