#!/usr/bin/env python3
"""Repeated benchmark runs and their run-to-run spread.

From the repository root:

  python3 perfbench/spread.py run OUT.jsonl [--seeds 1-10] [--trace 0|1] [WORKLOAD...]
      Runs perfbench/run.sh once per workload and seed (all workloads of
      BENCHMARK.json by default) with its run_seconds, appending one JSON
      record per run to OUT.jsonl: {"workload", "seed", "trace", "result"}.

  python3 perfbench/spread.py report A.jsonl [B.jsonl]
      For every workload and metric of A: the median over the runs, the
      quartiles as statistics.quantiles(values, n=4) gives them, and the
      spread, their distance as a share of the median. End-to-end metrics
      show their bound and whether the spread is below a third of it. With
      B, also B's median and whether it is worse than A's by more than the
      bound. Exits 1 if a run was not correct or B is worse beyond a bound.
"""
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(out, seeds, trace, workloads):
    spec = load_spec()
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for seed in seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            print(f"{w} seed={seed} trace={trace} exit={p.returncode}", flush=True)
            with open(out, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "trace": trace, "result": result}) + "\n")


def load(path):
    groups, bad = {}, 0
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            res = rec["result"]
            if res is None or not res["correct"] or res["failed"]:
                print(f"{path}: {rec['workload']} seed {rec['seed']}: run not correct")
                bad += 1
                continue
            for name, m in res["metrics"].items():
                groups.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    return groups, bad


def summary(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3, ((q3 - q1) / med if med else 0.0)


def report(a_path, b_path=None):
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    a, bad = load(a_path)
    b = {}
    if b_path:
        b, bad_b = load(b_path)
        bad += bad_b
    worse = 0
    for w in sorted(a):
        print(w)
        for name, vals in sorted(a[w].items()):
            med, q1, q3, spread = summary(vals)
            line = f"  {name:28s} n={len(vals):2d} median={med:12.6g} q1={q1:12.6g} q3={q3:12.6g} spread={spread:7.4f}"
            m = e2e.get(name)
            if m:
                line += f" bound={m['bound']:.2f} {'ok' if spread < m['bound'] / 3 else 'WIDE'}"
            if name in b.get(w, {}):
                med_b = statistics.median(b[w][name])
                line += f" | B median={med_b:12.6g}"
                if m and med:
                    change = (med_b - med) / med
                    loss = -change if m["better"] == "higher" else change
                    line += f" ({change:+.4f}{' WORSE' if loss > m['bound'] else ''})"
                    worse += loss > m["bound"]
            print(line)
    return 1 if bad or worse else 0


def seed_range(s):
    lo, _, hi = s.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    if len(argv) >= 2 and argv[0] == "run":
        out, rest = argv[1], argv[2:]
        seeds, trace, workloads = seed_range("1-10"), 0, []
        while rest:
            if rest[0] == "--seeds":
                seeds, rest = seed_range(rest[1]), rest[2:]
            elif rest[0] == "--trace":
                trace, rest = int(rest[1]), rest[2:]
            else:
                workloads, rest = workloads + [rest[0]], rest[1:]
        run(out, seeds, trace, workloads)
        return 0
    if len(argv) in (2, 3) and argv[0] == "report":
        return report(*argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
