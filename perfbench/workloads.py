"""Seeded operation mixes for the three workloads.

A workload is an endless sequence of cycles.  Each cycle holds a fixed number
of operations of each kind, with sizes spread over the stated ranges by
`Draws`, in an order the seed shuffles.  The seed fixes every input, and every
seed gives the same mix of kinds and size slices, so runs with different
seeds measure the same workload.  Runs measure whole cycles.

Ranges and their reasons:

ranks-deep -- library calls in one worker process.  Exact Fraction rank
  inversion grows about N^2.7 and series_pow about N^3, so the ranks and
  series layers do nearly all the work; the oracle and interpreter start-up
  do none.  growth_report raises OverflowError once log(beta) * N exceeds
  about 711 (the float range); its degree in the mix stays below
  GROWTH_LOG_LIMIT / log(beta), so that no timed operation fails, and the
  defect is shown by OVERFLOW_PROBES, run once per run outside the timing.
verify-deep -- `fourfold verify` at the oracle's deep shapes, one fresh
  process each: b2 = 2 at degree 10..12 and b2 = 3 at degree 8..10 (18k to
  510k columns, rows 10-45 % of columns), so elimination over the two primes
  does most of the work.
cli-mix -- every subcommand at default or small sizes, one fresh process
  each, so start-up dominates; verify runs in the wide shape (b2 = 4..12,
  rows under 3 % of columns), where word enumeration and the column index,
  not elimination, do the oracle's work.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time

import reference

WORKLOADS = ("ranks-deep", "verify-deep", "cli-mix")

#: The six deep shapes, weighted so that the median and the tail fall in
#: steady places.  By cost they form three blocks: (3, 8) and (2, 10) take
#: about 0.3 s, (2, 11) and (3, 9) 0.9 s, (2, 12) and (3, 10) 2.5-3 s.  The
#: machine's speed drifts by up to 1.5x in spells, and a percentile that
#: falls in the middle of a block of one cost jumps by that much when a run
#: spends half its time in a fast spell; the mean moves only in proportion.
#: With 6, 3 and 2 ops in the blocks, the median lies in the upper part of
#: the cheap block, where (3, 8) and (2, 10) latencies interleave, and the
#: tail (p77) in the upper part of the middle block (DESIGN.md, Workloads).
VERIFY_DEEP = ((2, 10), (2, 10), (2, 10), (2, 11), (2, 11), (2, 12),
               (3, 8), (3, 8), (3, 8), (3, 9), (3, 10))

#: Tail percentile per workload: every run at the seed commit has at least
#: ten completed ops beyond it, and on verify-deep it stays inside the middle
#: block (see VERIFY_DEEP).  It is fixed, so that a faster program, which
#: completes more ops, is not measured at a higher percentile.
TAIL_PERCENTILE = {"ranks-deep": 90, "verify-deep": 77, "cli-mix": 90}

#: Wide verify shape per b2: the highest degree whose top matrix has at most
#: 350k columns and fewer relation rows than 3 % of its columns.
VERIFY_WIDE = {4: 5, 5: 7, 6: 6, 7: 6, 8: 5, 9: 5, 10: 5, 11: 5, 12: 5}


#: growth_report's degree in ranks-deep keeps log(beta) * N at most this,
#: below the ~711 where the package's float fit overflows.
GROWTH_LOG_LIMIT = 650

#: (b2, N) at which growth_report overflows at the seed commit (log(beta) * N
#: is 770 and 734): the known defect, probed once per ranks-deep run and
#: reported apart from the timed operations.
OVERFLOW_PROBES = ((3, 800), (10, 320))


PHI = (5**0.5 - 1) / 2
ALPHA = 2**0.5 - 1


class Draws:
    """Low-discrepancy (b2, degree) draws for one kind of operation.

    Slot i of cycle j takes degree slice i and b2 slice (i + j) mod slots, so
    every `slots` cycles pair each b2 slice with each degree slice once.  The
    offsets inside the slices follow two Kronecker sequences (steps of the
    golden ratio and of sqrt(2) - 1 over the draw count) from starting points
    the seed fixes.  Every cycle thus costs about the same, runs of whole
    cycles cover both ranges evenly, and the cost of a run barely depends on
    the seed or on how many cycles it completes.
    """

    def __init__(self, rng, slots, betti, degree):
        self.slots, self.betti, self.degree = slots, betti, degree
        self.u, self.v = rng.random(), rng.random()
        self.draws = 0

    def next(self) -> list:
        """[b2, degree] for each slot of the next cycle."""
        (klo, khi), (nlo, nhi) = self.betti, self.degree
        j = self.draws // self.slots
        out = []
        for i in range(self.slots):
            g = self.draws
            self.draws += 1
            k_slice = (i + j) % self.slots
            k = klo + int((k_slice + (self.v + g * ALPHA) % 1) / self.slots * (khi - klo + 1))
            n = nlo + int((i + (self.u + g * PHI) % 1) / self.slots * (nhi - nlo + 1))
            out.append([k, n])
        return out


def random_stems(rng, max_index):
    """A stems table {n: (free rank, cyclic orders)} with stem 0 = Z."""
    stems = {0: (1, ())}
    for n in range(1, max_index + 1):
        orders = tuple(rng.choice((2, 3, 4, 6, 8, 12, 24, 240, 504)) for _ in range(rng.randint(0, 3)))
        stems[n] = (int(rng.random() < 0.1), orders)
    return stems


def _ranks_deep_draws(rng):
    return {
        "homotopy_ranks": Draws(rng, 6, (3, 12), (100, 600)),
        "growth_report": Draws(rng, 4, (3, 12), (100, 500)),
        "pbw_identity_check": Draws(rng, 3, (2, 8), (15, 45)),
        "quotient_series": Draws(rng, 3, (2, 12), (300, 1000)),
        "tensor_series": Draws(rng, 3, (2, 12), (300, 1000)),
    }


def growth_degree(k, n, degree=(100, 500)) -> int:
    """Map a draw n from `degree` onto [lo, the highest N with
    log(beta) * N <= GROWTH_LOG_LIMIT], keeping its place in the range."""
    lo, hi = degree
    beta = (k + (k * k - 4) ** 0.5) / 2
    top = min(hi, int(GROWTH_LOG_LIMIT / math.log(beta)))
    return lo + (n - lo) * (top - lo) // (hi - lo)


def _ranks_deep_cycle(rng, draws):
    ops = [{"fn": fn, "args": args} for fn, d in draws.items() for args in d.next()]
    for op in ops:
        if op["fn"] == "growth_report":
            op["args"][1] = growth_degree(*op["args"])
    ops.append(
        {
            "fn": "stable_homotopy_finite_pi1",
            "args": [rng.randint(1, 12), rng.randint(0, 20), rng.randint(1, 6)],
        }
    )
    stems = random_stems(rng, rng.randint(10, 40))
    ops.append({"fn": "load_stems_table", "args": [sorted(stems.items())]})
    rng.shuffle(ops)
    return ops


def _verify_op(k, n):
    budget = reference.word_counts(k, n)[n]
    argv = ["verify", "--betti", str(k), "--max-degree", str(n), "--budget", str(budget)]
    return {"cmd": "verify", "k": k, "n": n, "argv": argv + ["--format", "json"]}


def _verify_deep_cycle(rng):
    ops = [_verify_op(k, n) for k, n in VERIFY_DEEP]
    rng.shuffle(ops)
    return ops


def _cli_mix_draws(rng):
    return {
        "ranks": Draws(rng, 1, (1, 12), (20, 20)),
        "ranks-deg": Draws(rng, 1, (2, 12), (10, 60)),
        "quotient": Draws(rng, 1, (1, 12), (5, 60)),
        "tensor": Draws(rng, 1, (1, 12), (5, 60)),
        "pbw": Draws(rng, 1, (1, 12), (5, 30)),
        "free-comm": Draws(rng, 1, (1, 1), (5, 30)),
        "growth": Draws(rng, 1, (1, 12), (60, 60)),
    }


def _cli_mix_cycle(rng, draws, wide_ks, stems_file):
    def op(cmd, argv, **fields):
        return dict(fields, cmd=cmd, argv=[cmd] + argv + ["--format", "json"])

    def one(name):
        return draws[name].next()[0]

    ops = []
    k, n = one("ranks")
    ops.append(op("ranks", ["--betti", str(k)], k=k, n=n))
    k, n = one("ranks-deg")
    ops.append(op("ranks", ["--betti", str(k), "--max-degree", str(n)], k=k, n=n))
    for kind in ("quotient", "tensor", "pbw"):
        k, n = one(kind)
        argv = ["--kind", kind, "--betti", str(k), "--terms", str(n)]
        ops.append(op("series", argv, kind=kind, k=k, n=n))
    dims = {d: rng.randint(0, 3) for d in (1, 2, 3)}
    dims[rng.randint(1, 3)] += 1
    spec = ",".join(f"{d}:{m}" for d, m in dims.items())
    _, n = one("free-comm")
    argv = ["--kind", "free-comm", "--betti", "1", "--dims", spec, "--terms", str(n)]
    ops.append(op("series", argv, kind="free-comm", dims=spec, n=n))
    k, n = rng.randint(1, 12), rng.randint(0, 21)
    ops.append(op("stable", ["--betti", str(k), "--n", str(n)], k=k, n=n, m=1))
    k, n, m = rng.randint(1, 12), rng.randint(0, 20), rng.randint(2, 6)
    argv = ["--betti", str(k), "--n", str(n), "--pi1-order", str(m)]
    ops.append(op("stable", argv, k=k, n=n, m=m))
    path, stems = stems_file
    k, n = rng.randint(1, 12), rng.randint(0, max(stems) + 2)
    argv = ["--betti", str(k), "--n", str(n), "--stems-file", path]
    ops.append(op("stable", argv, k=k, n=n, m=1, stems=True))
    k, n = one("growth")
    ops.append(op("growth", ["--betti", str(k)], k=k, n=n))
    ops += [_verify_op(k, VERIFY_WIDE[k]) for k in (next(wide_ks), next(wide_ks))]
    rng.shuffle(ops)
    return ops


def _permutations(rng, items):
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


def cycles(workload: str, seed: int, stems_file=None):
    """Endless cycles of operations for a workload.

    stems_file is (path, stems) for cli-mix: a generated table written where
    the CLI can read it.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ranks-deep":
        draws = _ranks_deep_draws(rng)
        while True:
            yield _ranks_deep_cycle(rng, draws)
    elif workload == "verify-deep":
        while True:
            yield _verify_deep_cycle(rng)
    elif workload == "cli-mix":
        draws = _cli_mix_draws(rng)
        wide_ks = _permutations(rng, sorted(VERIFY_WIDE))
        while True:
            yield _cli_mix_cycle(rng, draws, wide_ks, stems_file)
    else:
        raise ValueError(f"unknown workload {workload!r}")


#: Set-up samples a timed run takes, spread over the run (see `measure`).
SETUP_SAMPLES = 11


def time_setup(env=None, cwd=None) -> float:
    """Seconds for a fresh interpreter to import fourfold and load the
    bundled stems table: what every CLI run pays before its own work."""
    argv = [sys.executable, "-c", "import fourfold; fourfold.bundled_stems_table()"]
    start = time.perf_counter()
    code = subprocess.run(argv, stdout=subprocess.DEVNULL, env=env, cwd=cwd).returncode
    seconds = time.perf_counter() - start
    if code:
        raise RuntimeError(f"importing fourfold exited {code}")
    return seconds


def measure(cycle_iter, execute, seconds=None, cycles=None, setup=None) -> tuple:
    """Closed loop, one operation in flight: run whole cycles until `seconds`
    have passed, or exactly `cycles` cycles.  Returns (records, set-up
    seconds): the records that `execute` makes, one per operation, and, when
    `setup` is given, SETUP_SAMPLES values of `setup()`.  The set-up samples
    are taken between cycles, in step with the elapsed share of `seconds`,
    so that they see the machine over the whole run and not in one spell."""
    records, setup_s = [], []
    start = time.perf_counter()
    for done, cycle in enumerate(cycle_iter):
        elapsed = time.perf_counter() - start
        if done == cycles or (cycles is None and elapsed >= seconds):
            break
        while setup and len(setup_s) < min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * elapsed / seconds)):
            setup_s.append(setup())
        records += [execute(op) for op in cycle]
    while setup and len(setup_s) < SETUP_SAMPLES:
        setup_s.append(setup())
    return records, setup_s
