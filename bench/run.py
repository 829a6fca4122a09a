"""The repo's benchmark: five workloads, seven end-to-end metrics, per-layer spans.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/run.py --seed S [--trace] [--quick]      # every workload
    python3 bench/run.py --aa N                            # A/A self-check

Each workload runs in its own fresh, single-threaded child interpreter
(`child.py`) after import-only priming children; this file only spawns,
aggregates, checks and prints.  With `--workload` the last line of output is
one JSON object `{"correct", "attempted", "failed", "metrics"}` holding the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`) named
in BENCHMARK.json.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from calibrate import kernel, speed_between  # noqa: E402
from workloads import GOLDEN_SEED, SPECS  # noqa: E402  (no repro import at module level)

CHILD_TIMEOUT_S = 170
#: Import-only children per run: the first warms .pyc files and the page
#: cache and is not timed; the rest, with the workload child, give setup_s
#: a median interpreter start-up instead of one sample.
PROBES = 3


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_NO_SETUP_CACHE"] = "1"
    # Bytecode goes under bench/out so a run leaves src/ untouched.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(HERE, "out", "pycache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(extra: list[str]) -> dict:
    """Run one child; returns its last-line JSON plus `import_s`: child start
    to imports done, on the reference clock (kernel before and after)."""
    kernel_before = kernel()
    started = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *extra],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"child {extra} printed nothing:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    speed = speed_between(kernel_before, result["kernel_ms_after_imports"])
    result["import_s"] = (result["imports_done_at"] - started) * speed
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One workload: the untraced pass, and with `trace` a traced pass too."""
    imports = [spawn(["--probe"])["import_s"] for _ in range(PROBES)][1:]
    common = ["--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    # With tracing the budget is split: a short untraced pass for the wall
    # clock the overhead is relative to, then the traced pass.
    plain_s = seconds / 3.0 if trace else seconds
    plain = spawn(common + ["--seconds", f"{plain_s:.3f}", "--trace", "0"])
    imports.append(plain["import_s"])
    e2e = dict(plain["e2e"])
    e2e["setup_s"] = statistics.median(imports) + e2e.pop("setup_epoch_s")
    out = {
        "workload": name,
        "seed": seed,
        "correct": plain["correct"],
        "errors": plain["errors"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "epochs": plain["epochs"],
        "latency_samples": plain["latency_samples"],
        "e2e": e2e,
        "layer": dict(plain["layer"]),
        "env": plain["env"],
    }
    if trace:
        traced = spawn(common + ["--seconds", f"{seconds - plain_s:.3f}", "--trace", "1"])
        layer = dict(traced["layer"])
        layer.update(plain["layer"])  # counts and latencies come from the untraced pass
        layer["obs.trace_overhead_pct"] = 100.0 * (
            statistics.median(traced["epoch_wall_s"]) / statistics.median(plain["epoch_wall_s"])
            - 1.0
        )
        out["layer"] = layer
        out["traced_epochs"] = traced["epochs"]
        out["correct"] = out["correct"] and traced["correct"]
        out["errors"] = out["errors"] + traced["errors"]
        out["attempted"] += traced["attempted"]
        out["failed"] += traced["failed"]
    return out


def environment() -> dict:
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "gmpy2": has_gmpy2,
        "loadavg_at_start": list(os.getloadavg()),
    }


def print_result(result: dict, contract: dict, trace: bool) -> None:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    name = result["workload"]
    print(f"== {name}  seed={result['seed']}  epochs={result['epochs']}  "
          f"ops_attempted={result['attempted']}  ops_failed={result['failed']}  "
          f"latency_samples={result['latency_samples']}  "
          f"correct={result['correct']}  child={json.dumps(result['env'])}")
    for error in result["errors"]:
        print(f"   CHECK FAILED: {error}")
    for metric in contract["end_to_end"]:
        key = metric["name"]
        print(f"   {key:40s} {result['e2e'][key]:14.4f} {units[key]}")
    if trace:
        for metric in contract["per_layer"]:
            key = metric["name"]
            print(f"   {key:40s} {result['layer'].get(key, 0.0):14.4f} {units[key]}")
        print(f"   layer share of self time (%): {result['layer'].get('_layer_share_pct')}")


def final_line(result: dict, contract: dict, trace: bool) -> str:
    group, values = (
        (contract["per_layer"], result["layer"]) if trace
        else (contract["end_to_end"], result["e2e"])
    )
    return json.dumps({
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in group
        },
    })


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def aa(n: int, seed: int, seconds: float, contract: dict, out_path: str) -> int:
    """Run the suite n times as set A and n times as set B, interleaved, on
    this checkout; fail if two sets of the same code disagree."""
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    runs: dict = {name: {"A": [], "B": []} for name in SPECS}
    for index in range(n):
        for label in ("AB" if index % 2 == 0 else "BA"):
            for name in SPECS:
                result = run_workload(name, seed + index, seconds, False, False)
                if not result["correct"]:
                    print(f"{name} seed {seed + index}: {result['errors']}", file=sys.stderr)
                    return 1
                runs[name][label].append(result["e2e"])
                print(f"aa {label}{index} {name} " + " ".join(
                    f"{k}={v:.4g}" for k, v in result["e2e"].items()), flush=True)
    report = {"n": n, "seed": seed, "seconds": seconds, "env": environment(), "rows": []}
    worst = 0
    print(f"{'workload':14s} {'metric':24s} {'median A':>12s} {'median B':>12s} "
          f"{'gap':>7s} {'iqr A':>7s} {'iqr B':>7s} {'bound':>6s}")
    for name in SPECS:
        for key, metric in bounds.items():
            a = [run[key] for run in runs[name]["A"]]
            b = [run[key] for run in runs[name]["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = abs(med_b - med_a) / abs(med_a)
            spreads = [spread(a), spread(b)] if n >= 2 else [0.0, 0.0]
            bad = gap > metric["bound"] or (
                key != "setup_s" and max(spreads) > metric["bound"]
            )
            worst |= bad
            report["rows"].append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "median_a": med_a, "median_b": med_b, "gap": gap,
                "spread_a": spreads[0], "spread_b": spreads[1],
                "bound": metric["bound"], "within_bound": not bad,
                "a": a, "b": b,
            })
            print(f"{name:14s} {key:24s} {med_a:12.4f} {med_b:12.4f} {gap:7.2%} "
                  f"{spreads[0]:7.2%} {spreads[1]:7.2%} {metric['bound']:6.0%}"
                  + ("  <-- outside" if bad else ""))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return int(worst)


def write_golden() -> int:
    """Re-pin the sim_* runs at GOLDEN_SEED (three full epochs, one quick).
    For the change that alters a workload; never for one that claims a gain."""
    golden: dict = {}
    for name, spec in SPECS.items():
        if spec.kind != "sim":
            continue
        golden[name] = {}
        for mode, extra, keep in (("full", [], 3), ("quick", ["--quick"], 1)):
            child = spawn(["--workload", name, "--seed", str(GOLDEN_SEED), "--seconds", "170",
                           "--max-epochs", str(keep), *extra])
            golden[name][mode] = [
                {k: round(v, 6) if isinstance(v, float) else v for k, v in pins.items()}
                for pins in child["pins"]
            ]
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget per workload (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one short epoch per workload, same checks")
    parser.add_argument("--aa", type=int, metavar="N", default=0)
    parser.add_argument("--aa-out", default=os.path.join(HERE, "out", "aa.json"))
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin golden.json from this checkout")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    if args.write_golden:
        return write_golden()
    if args.aa:
        return aa(args.aa, args.seed, seconds, contract, args.aa_out)

    trace = bool(args.trace)
    print(f"env {json.dumps(environment())}")
    names = [args.workload] if args.workload else list(SPECS)
    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, trace, args.quick)
        print_result(result, contract, trace)
        results.append(result)
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    if args.workload:
        if not ok:
            return 1
        print(final_line(results[0], contract, trace))
    else:
        print(json.dumps({
            "correct": ok,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "workloads": {r["workload"]: {**r["e2e"], **(r["layer"] if trace else {})}
                          for r in results},
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
