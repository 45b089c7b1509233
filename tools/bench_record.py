"""Record benchmark runs of one or more checkouts as BENCH_<label>.json.

    python3 tools/bench_record.py 27bcbe5=../parent change=. \
        --workloads coproduct,roundtrip --seeds 1-6 --seconds 20

Each LABEL=DIR names the root of a checkout.  For every workload and
seed the script runs the checkout's own, unchanged ``python3 bench/run.py
--workload W --seed S --seconds T --trace 0`` once per checkout, one run
at a time; the order of the checkouts rotates with the seed, so with two
checkouts each runs first on every other seed.  It writes, per label,
``BENCH_<label>.json`` into --out: the checkout's git revision, every
run's result (the last line ``bench/run.py`` prints) with the
uncorrected times of the line before it, and per workload the median of
each metric over the seeds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def git(checkout: Path, *args: str) -> str:
    out = subprocess.run(["git", "-C", str(checkout), *args],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else ""


def revision(checkout: Path) -> dict:
    """The commit, the tree of its src (unchanged when only other files
    change), and whether src or bench differ from the commit."""
    return {"commit": git(checkout, "rev-parse", "HEAD"),
            "src_tree": git(checkout, "rev-parse", "HEAD:src"),
            "dirty": bool(git(checkout, "status", "--porcelain", "--",
                              "src", "bench"))}


def seeds(text: str) -> list[int]:
    """"1-6" or "1,3,5" or a mix of both."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def one_run(checkout: Path, workload: str, seed: int,
            seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    run = {"workload": workload, "seed": seed, "exit": done.returncode}
    try:
        run["result"] = json.loads(lines[-1])
        run["uncorrected"] = json.loads(lines[-2])["uncorrected"]
    except (IndexError, ValueError, KeyError):
        run["stderr"] = done.stderr[-2000:]
    return run


def medians(runs: list[dict]) -> dict:
    """Per workload: each metric's median over the runs that printed a
    result, the runs counted, and the failed operations summed."""
    out: dict = {}
    for run in runs:
        entry = out.setdefault(run["workload"], {
            "runs": 0, "correct": True, "failed": 0, "attempted": 0,
            "values": {}})
        result = run.get("result")
        if result is None:
            entry["correct"] = False
            continue
        entry["runs"] += 1
        entry["correct"] &= result["correct"]
        entry["failed"] += result["failed"]
        entry["attempted"] += result["attempted"]
        for name, metric in result["metrics"].items():
            entry["values"].setdefault(name, []).append(metric["value"])
    for entry in out.values():
        entry["medians"] = {name: statistics.median(values) for name, values
                            in entry.pop("values").items()}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=DIR")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help='e.g. "1-6"')
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args()
    sides = []
    for spec in args.checkouts:
        label, sep, path = spec.partition("=")
        checkout = Path(path).resolve()
        if not sep or not (checkout / "bench" / "run.py").is_file():
            parser.error(f"{spec}: expected LABEL=DIR with DIR/bench/run.py")
        sides.append((label, checkout))
    runs: dict[str, list] = {label: [] for label, _ in sides}
    for workload in args.workloads.split(","):
        for k, seed in enumerate(seeds(args.seeds)):
            order = sides[k % len(sides):] + sides[:k % len(sides)]
            for position, (label, checkout) in enumerate(order):
                run = one_run(checkout, workload, seed, args.seconds)
                run["position"] = position
                runs[label].append(run)
                wall = run.get("result", {}).get("metrics", {}).get(
                    "wall_s", {}).get("value")
                print(f"{workload} seed {seed} {label}: wall_s {wall}",
                      file=sys.stderr, flush=True)
    for label, checkout in sides:
        record = {"label": label, "revision": revision(checkout),
                  "command": "python3 bench/run.py --trace 0",
                  "seconds": args.seconds, "workloads": medians(runs[label]),
                  "runs": runs[label]}
        path = args.out / f"BENCH_{label}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
