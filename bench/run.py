"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload coproduct --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from its
``src`` directory.  The workload's items are generated from the seed and
run in whole rounds, one item at a time, until the timed phase has lasted
``--seconds``.  The first round's outputs are checked apart from the
program; every later round must reproduce them.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics, and writes
the spans and counts to ``bench/out/``.  Times are given at a reference
host speed (see ``HostSpeed``) and an item's time is its median over the
rounds.  The last line of output is the result; the line before it holds
the same times without the host-speed correction, and the median
correction factor.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set-ups per run.  One short set-up (0.05-0.15 s) varies by a third
# from the next, so its median needs many; roundtrip's set-up lasts about
# a second, is corrected in 0.1 s segments, and five keep its run short.
SETUP_REPEATS = 15
SETUP_REPEATS_BY_WORKLOAD = {"roundtrip": 5}
MIN_ROUNDS = 3
TAIL_BEYOND = 10
MIN_ITEMS_FOR_TAIL = 40
CALIBRATE_EVERY_S = 0.1
MODULES = ("algebra", "duality", "closure", "relations", "cli")
# Span names whose seconds per round are per-layer metrics.
SPAN_METRICS = (
    "algebra.product", "algebra.hom_enumerate", "duality.dual_space",
    "duality.spaces_isomorphic", "duality.evaluation_e",
    "duality.evaluation_eps", "duality.dual_points",
    "duality.dual_algebra_elements", "duality.dual_algebra",
    "duality.xn_membership", "duality.x2_axiom_check",
    "closure.enumerate_xn_structures", "relations.compute_Sn",
    "relations.candidate_sequences", "relations.is_good_sequence",
    "cli.main",
)


class Program:
    """The program's layer modules, freshly imported from the checkout's
    src, so that each set-up pays for the import as a new process does."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "pmvdual" / "__init__.py").is_file():
            sys.exit(f"error: no program at {src / 'pmvdual'}; run from the "
                     f"root of a checkout")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        for name in [m for m in sys.modules if m.split(".")[0] == "pmvdual"]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"pmvdual.{name}"))
        if not Path(self.algebra.__file__).resolve().is_relative_to(src):
            sys.exit(f"error: pmvdual was imported from "
                     f"{self.algebra.__file__}, not from {src}")


def checked(item, out) -> list:
    """The item's check failures; a check that raises is one failure."""
    if isinstance(out, Exception):
        return [f"raised {out!r}"]
    try:
        return item.check(out)
    except Exception as exc:  # a malformed output must not end the run
        return [f"check raised {exc!r}"]


def digest(item, out):
    """The item's digest of out, or None when out is an exception or the
    digest raises; None never equals the digest of a checked output."""
    if isinstance(out, Exception):
        return None
    try:
        return item.digest(out)
    except Exception:
        return None


def percentile_rank(count: int) -> int:
    """0-based index of the tail value: exactly TAIL_BEYOND items above it."""
    return count - TAIL_BEYOND - 1


class HostSpeed:
    """The host's current speed, from a fixed piece of the benchmark's own
    code (all homs of a 10-element subalgebra of PL_2^3 into PL_2, by
    ``gen.homs_backtrack``).

    This host alternates between fast and slow phases, about 2x apart,
    that last from under a second to over twenty seconds; runs made one
    after another differed by up to 70% in median item time on identical
    items.  Dividing a time by ``factor()`` measured around it gives the
    time at the reference speed REF_S.  The calibration runs with the
    garbage collector off, so the program's heap does not move it.
    """

    REF_S = 0.36e-3           # the calibration's time in a fast phase
    REPEATS = 3

    def __init__(self):
        power = gen.Power(2, 3)
        self.tables = power.tables(power.close((5, 19)))

    def factor(self) -> float:
        gc.disable()
        try:
            best = float("inf")
            for _ in range(self.REPEATS):
                start = time.perf_counter()
                gen.homs_backtrack(self.tables, 2)
                best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        return best / self.REF_S


class Stopwatch:
    """Raw times grouped into segments of at least CALIBRATE_EVERY_S of
    work.  Each segment is divided by the mean of the host-speed factors
    measured just before and just after it, which gives its times at the
    reference speed; the calibrations themselves are not timed."""

    def __init__(self, host: HostSpeed):
        self.host = host
        self.last = host.factor()
        self.pending: list = []
        self.work = 0.0
        self.factors: list[float] = []

    def add(self, took: float, entry=None, work: float = 0.0) -> list:
        """Record raw seconds for entry, of a piece of work that lasted
        ``took + work``; returns (entry, took, scale) for every entry of the
        segment this closes, or nothing."""
        self.pending.append((entry, took))
        self.work += took + work
        return self.close() if self.work >= CALIBRATE_EVERY_S else []

    def close(self) -> list:
        if not self.pending:
            return []
        now = self.host.factor()
        scale = (self.last + now) / 2
        self.factors.append(scale)
        out = [(entry, took, scale) for entry, took in self.pending]
        self.last, self.pending, self.work = now, [], 0.0
        return out


def set_up(host: HostSpeed, setup, seed: int, tr) -> tuple:
    """Import the program, make the inputs and warm the program's caches.
    Returns the program, the items, the set-up time at the reference speed,
    the raw set-up time and the spans' seconds at the reference speed."""
    watch = Stopwatch(host)
    scaled, raw, spans = 0.0, 0.0, defaultdict(float)
    start, mark = time.perf_counter(), tr.mark()

    def lap(last: bool = False) -> None:
        nonlocal scaled, raw, start, mark
        took = time.perf_counter() - start
        done = watch.add(took, tr.totals(mark))
        for totals, t, scale in done + (watch.close() if last else []):
            scaled += t / scale
            raw += t
            for name, v in totals.items():
                spans[name] += v / scale
        start, mark = time.perf_counter(), tr.mark()

    pmv = Program()
    items = setup(pmv, seed, tr, lap)
    lap(last=True)
    return pmv, items, scaled, raw, spans


def item_metrics(times: list) -> dict:
    """wall_s, item_p50_ms and item_tail_ms, with their units, from each
    item's times over the rounds; an item's time is its median."""
    item_s = sorted(statistics.median(t) for t in times)
    out = {"wall_s": (sum(item_s), "s"),
           "item_p50_ms": (1000 * statistics.median(item_s), "ms")}
    if len(item_s) >= MIN_ITEMS_FOR_TAIL:
        out["item_tail_ms"] = (
            1000 * item_s[percentile_rank(len(item_s))], "ms")
    return out


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple:
    """The run's result, and its raw figures: times without the host-speed
    correction and the median correction factor."""
    host = HostSpeed()
    tr = Tracer(traced)
    setup = workloads.SETUPS[workload]
    setup_s, setup_raw, from_tables = [], [], []
    for _ in range(SETUP_REPEATS_BY_WORKLOAD.get(workload, SETUP_REPEATS)):
        # as for the items below: each set-up starts from a collected heap
        gc.collect()
        pmv, items, took, raw, spans = set_up(host, setup, seed, tr)
        setup_s.append(took)
        setup_raw.append(raw)
        from_tables.append(spans["algebra.from_tables"])
    gc.collect()
    gc.freeze()

    # times[k][r]: item k in round r at the reference speed; raw[k][r]
    # without the correction.
    watch = Stopwatch(host)
    times = [[] for _ in items]
    raw = [[] for _ in items]
    layer_rounds: list[dict] = []
    digests, first_fail = [], []
    failed = 0
    wrong: list[str] = []
    rounds, elapsed = 0, 0.0
    while rounds < MIN_ROUNDS or elapsed < seconds:
        outputs, spans = [], defaultdict(float)
        for k, item in enumerate(items):
            # Every item starts from a collected heap, so neither its time
            # nor the peak memory depends on the garbage left by the items
            # before it: in the seeded order, a 7-point membership space
            # run after the 8-point one raised the peak by up to 10%.
            gc.collect()
            if item.prepare:
                item.prepare()
            tr.item = item.id
            mark = tr.mark()
            start = time.perf_counter()
            try:
                out = tr.call("item", item.run, tr)
            except Exception as exc:  # an operation that fails is counted
                out = exc
            took = time.perf_counter() - start
            if traced and item.extra:
                item.extra(tr)
            outputs.append(out)
            elapsed += took
            done = watch.add(took, (k, tr.totals(mark)),
                             time.perf_counter() - start - took)
            if k == len(items) - 1:
                done += watch.close()
            for (j, totals), t, scale in done:
                times[j].append(t / scale)
                raw[j].append(t)
                for name, v in totals.items():
                    spans[name] += v / scale
        layer_rounds.append(spans)
        rounds += 1
        for k, (item, out) in enumerate(zip(items, outputs)):
            if rounds == 1:
                fails = checked(item, out)
                d = digest(item, out) if not fails else None
                if not fails and d is None:
                    fails = ["digest raised"]
                wrong += [f"{item.id}: {f}" for f in fails]
                first_fail.append(bool(fails))
                digests.append(d)
            elif not first_fail[k] and digest(item, out) != digests[k]:
                wrong.append(f"{item.id}: round {rounds} differs from round 1")
                first_fail[k] = True
            failed += first_fail[k]
    for line in wrong[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    result = {"correct": not wrong, "attempted": rounds * len(items),
              "failed": failed}
    measured = item_metrics(times)
    uncorrected = {**{k: v for k, (v, _) in item_metrics(raw).items()},
                   "setup_s": statistics.median(setup_raw),
                   "host_factor_p50": statistics.median(watch.factors),
                   "rounds": rounds}
    if traced:
        metrics = layer_metrics(tr, layer_rounds, from_tables,
                                measured["wall_s"][0])
        tr.write(BENCH / "out" / f"trace-{workload}-seed{seed}.json")
    else:
        metrics = {**measured,
                   "peak_rss_mb": (resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                   "setup_s": (statistics.median(setup_s), "s")}
    result["metrics"] = {name: {"value": v, "unit": u}
                         for name, (v, u) in metrics.items()}
    return result, uncorrected


def layer_metrics(tr, layer_rounds, from_tables, wall_s) -> dict:
    rounds = len(layer_rounds)
    counts = tr.counts

    def per_round(name):
        return statistics.median(spans[name] for spans in layer_rounds)

    def rate(name, count):
        calls = counts[count] / rounds
        return 1e6 * per_round(name) / calls if calls else 0.0

    out = {f"{name}.s": (per_round(name), "s") for name in SPAN_METRICS}
    out["algebra.from_tables.s"] = (statistics.median(from_tables), "s")
    out["algebra.hom_enumerate.us_per_hom"] = (
        rate("algebra.hom_enumerate", "algebra.hom_enumerate.homs"), "us")
    out["duality.dual_algebra_elements.us_per_map"] = (
        rate("duality.dual_algebra_elements",
             "duality.dual_algebra_elements.maps"), "us")
    out["duality.xn_membership.alloc_peak_mb"] = (
        counts["duality.xn_membership.alloc_peak_bytes"] / 2 ** 20, "MB")
    out["traced.wall_s"] = (wall_s, "s")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result, uncorrected = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps({"uncorrected": uncorrected}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
