"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range over median) against the
bound in BENCHMARK.json.  With --traced, run each workload once with tracing
instead and report where its time goes.  With --write, store the result in
perfbench/baseline.json.

    python3 perfbench/stability.py --seeds 1-10 [--workloads ask_survey,...] [--write]
    python3 perfbench/stability.py --traced --seeds 1 [--write]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import gen  # noqa: E402


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_shares(metrics: dict) -> dict:
    """Share of the time inside traced spans per module, from the self times
    (every instant inside a span belongs to exactly one span's self time)."""
    shares: dict = {"llm": metrics["llm.wait_s"]["value"]}
    for name, m in metrics.items():
        if name.endswith(".self_s"):
            module = name.split(".", 1)[0]
            shares[module] = shares.get(module, 0.0) + m["value"]
    total = sum(shares.values())
    return {k: v / total for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


def traced(bench: dict, names: list, seed: int) -> dict:
    out = {}
    for workload in names:
        metrics = run_once(bench, workload, seed, trace=1)["metrics"]
        shares = time_shares(metrics)
        print(f"{workload} seed {seed}: share of the time inside traced spans, by module")
        for module, share in shares.items():
            print(f"  {module:12s} {share:6.1%}")
        out[workload] = {"seed": seed, "time_share_by_module": shares,
                         "per_layer": {n: m["value"] for n, m in metrics.items()}}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    path = HERE / "baseline.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    doc["workloads"] = {n: dict(spec, why=why[n]) for n, spec in gen.WORKLOADS.items()}
    if args.traced:
        doc.setdefault("traced", {}).update(traced(bench, names, args.seeds[0]))
        if args.write:
            path.write_text(json.dumps(doc, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
        return
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in names:
        values: dict = {}
        units: dict = {}
        for seed in args.seeds:
            result = run_once(bench, workload, seed)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": units[name], "bound": bounds[name]}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:28s} median {med:10.4g} {units[name]:6s} spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}{flag}")
        summary[workload] = rows
    if args.write:
        doc.setdefault("baseline", {}).update(summary)
        doc["baseline_seeds"] = args.seeds
        path.write_text(json.dumps(doc, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
