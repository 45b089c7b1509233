"""Steadiness check: run the benchmark in sets of seeded runs and report,
for every workload and end-to-end metric, each set's median, its spread
(the distance between the quartiles as a share of the median) and
whether the medians of the sets agree within the metric's bound.

    python3 bench/steady.py                      # 2 sets of 10 seeds
    python3 bench/steady.py --sets 1 --seeds 5 --workloads coproduct
    python3 bench/steady.py --sets 1 --seeds 3 --traced 1

Runs are made one at a time from the repository root, each in its own
process; set s uses seeds s * seeds + 1 .. (s + 1) * seeds.  Beside the
end-to-end metrics it reports the median of each run's uncorrected
figures: wall_s and setup_s without the host-speed correction, and the
correction factor.  ``--traced K`` adds K traced runs per workload in
each set and reports the tracing overhead, the median traced wall_s
against the median untraced one.  All values are written to
bench/out/steady-<time>.json.  Exits 1 if a run fails, any spread
(setup_s included) exceeds its metric's bound, two set medians differ by
more than the bound, or the share of failed operations differs between
sets.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 180


def run_once(config, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    *_, uncorrected, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["uncorrected"] = json.loads(uncorrected)["uncorrected"]
    result["run_s"] = time.perf_counter() - start
    return result


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    traced = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.seeds):
            seed = s * args.seeds + i + 1
            for w in workloads:
                r = run_once(config, w, seed, seconds, 0)
                runs[w][s].append(r)
                print(f"set {s + 1} seed {seed} {w}: {r['run_s']:.1f} s, "
                      + ", ".join(f"{k} {v['value']:.4g}"
                                  for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)
        for i in range(args.traced):
            seed = s * args.seeds + i + 1
            for w in workloads:
                traced[w][s].append(run_once(config, w, seed, seconds, 1))

    ok = True
    report = {"seconds": seconds, "workloads": {}}
    for w in workloads:
        out = report["workloads"][w] = {"metrics": {}}
        shares = {r["failed"] / r["attempted"] for rs in runs[w] for r in rs}
        if len(shares) != 1 or any(not r["correct"]
                                   for rs in runs[w] for r in rs):
            ok = False
        out["failed_share"] = sorted(shares)
        out["run_s_max"] = max(r["run_s"] for rs in runs[w] for r in rs)
        print(f"\n{w}: failed share {sorted(shares)}, longest run "
              f"{out['run_s_max']:.1f} s")
        for name in ("wall_s", "setup_s", "host_factor_p50"):
            medians = [statistics.median(r["uncorrected"][name] for r in rs)
                       for rs in runs[w]]
            out[f"uncorrected_{name}"] = medians
            print(f"  uncorrected {name:15s} medians "
                  + " ".join(f"{m:10.4g}" for m in medians))
        for name, bound in bounds.items():
            sets = [[r["metrics"][name]["value"] for r in rs]
                    for rs in runs[w]]
            medians = [statistics.median(v) for v in sets]
            q = [statistics.quantiles(v, n=4) for v in sets]
            spreads = [spread(v) for v in sets]
            drift = (max(medians) - min(medians)) / min(medians)
            steady = max(spreads) <= bound
            agree = drift <= bound
            ok &= steady and agree
            out["metrics"][name] = {"values": sets, "medians": medians,
                                    "quartiles": q, "spreads": spreads,
                                    "drift": drift, "bound": bound}
            print(f"  {name:13s} medians "
                  + " ".join(f"{m:10.4g}" for m in medians)
                  + "  spreads " + " ".join(f"{x:6.3f}" for x in spreads)
                  + f"  drift {drift:6.3f}  bound {bound}"
                  + ("" if steady else "  SPREAD OVER BOUND")
                  + ("" if agree else "  MEDIANS DISAGREE"))
        if args.traced:
            wall = statistics.median(
                r["metrics"]["wall_s"]["value"] for rs in runs[w] for r in rs)
            traced_wall = statistics.median(
                r["metrics"]["traced.wall_s"]["value"]
                for rs in traced[w] for r in rs)
            out["tracing_overhead"] = traced_wall / wall - 1
            out["traced"] = [r["metrics"] for rs in traced[w] for r in rs]
            print(f"  tracing overhead {100 * out['tracing_overhead']:.1f}%")
    path = BENCH / "out" / time.strftime("steady-%Y%m%d-%H%M%S.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; values in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
