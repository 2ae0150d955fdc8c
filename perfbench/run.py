#!/usr/bin/env python3
"""Host-time benchmark of the kingsguard simulator.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one summary

The script builds perfbench/kgbench.exe in the release profile into
$CARGO_TARGET_DIR (default .bench_build), then for the chosen workload:

1. runs the workload once through the library's own driver
   (Kg_sim.Run.run) for the reference digest of every simulated
   statistic; for serve-pjbb-2d also through the inline oracle;
2. repeats the benchmark's own assembly of the run, each repetition in
   a fresh process, until --seconds have passed (at least three
   repetitions). With --trace 1 each untraced repetition is paired with
   a traced one that times every layer boundary;
3. checks every repetition's digest against the reference (and, at the
   default seed, against the digest recorded in expected_digests.json);
4. prints a report and, as its last line, one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1),
   each the median over the repetitions.

BENCHMARK.json lists two workloads: serve-pjbb-2d (epoch protocol,
team collector, counting sink, serve path) and fig7-engine (engine,
pool, store, write partitioning, cache hierarchy). sim-xalan-kgw (the
paper's reference run, full cache simulation) and count-xalan-kgw (the
same run in Count mode) run when named or with --workload all. On a
shared 2-vCPU Xeon VM, repetition times of one input drifted by up to
1.8x over minutes; 50-second runs kept the medians steady, and at that
length only two workloads fit the time a full parent/change comparison
may take.

Simulated statistics are the correctness check, never a metric: the
modeled block (simulated time, PCM writes, lifetime, serve pauses and
latencies) describes the simulated machine, not this program.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 42
MIN_REPS = 3
REP_TIMEOUT_S = 150

WORKLOADS = {
    "sim-xalan-kgw": "xalan, KG-W, Hybrid, Simulate, 1 domain, 16 MB",
    "count-xalan-kgw": "xalan, KG-W, Hybrid, Count, 1 domain, 32 MB",
    "serve-pjbb-2d": "pjbb serve, KG-W, Count, 2 domains, parallel GC, 1024 req/s, 16 MB",
    "fig7-engine": "Figure 7 (28 Simulate jobs) at quick_opts, 1 MB cap, 2-wide pool, fresh store",
}

# Fields of a repetition that are not per-layer figures.
REP_FIELDS = {"wall_s", "setup_s", "steady_mb", "runs", "requests", "peak_rss_mb"}

# (row, self-time metric, count metric) of the per-layer table. RUN_ROWS
# split one simulator run (on fig7-engine, the traced figure job, whose
# own wall is job.wall_s); the rest split the whole traced repetition.
RUN_ROWS = [
    ("machine.build", "machine.build_s", None),
    ("runtime.create", "runtime.create_s", None),
    ("workload.startup", "workload.startup_s", None),
    ("workload", "workload.self_s", "workload.ops"),
    ("gc.nursery", "gc.nursery.self_s", "gc.nursery.count"),
    ("gc.observer", "gc.observer.self_s", "gc.observer.count"),
    ("gc.major", "gc.major.self_s", "gc.major.count"),
    ("port.count", "port.count.self_s", "port.records"),
    ("cache", "cache.self_s", "cache.records"),
]
REP_ROWS = [
    ("engine.setup", "engine.setup_s", None),
    ("engine.prefetch", "engine.prefetch_s", None),
    ("engine.render", "engine.render_s", None),
    ("unattributed", "unattributed_s", None),
]


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_env(build_dir):
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp), DUNE_CACHE="disabled")
    return env, tmp


def build(build_dir, env):
    dune_dir = os.path.abspath(os.path.join(build_dir, "dune"))
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", dune_dir,
           "./perfbench/kgbench.exe"]
    try:
        p = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune not found", 3)
    if p.returncode != 0:
        fail("build failed", 3)
    return os.path.join(dune_dir, "default", "perfbench", "kgbench.exe")


def commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    except FileNotFoundError:
        pass
    # Not a git checkout: name the sources by content instead.
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, _, files in sorted(os.walk(top)):
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(d, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def rep(exe, env, role, workload, seed, tmp):
    """One repetition in a fresh process: its JSON line, or None if it failed."""
    try:
        p = subprocess.run([exe, role, workload, str(seed), tmp], env=env, capture_output=True,
                           text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {role} {workload} timed out", file=sys.stderr)
        return None
    if p.returncode != 0:
        print(f"perfbench: {role} {workload} exited {p.returncode}: {p.stderr[-2000:]}",
              file=sys.stderr)
        return None
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"perfbench: {role} {workload} printed no result", file=sys.stderr)
        return None


def median(xs):
    return statistics.median(xs) if xs else 0.0


def run_workload(exe, env, tmp, name, seed, seconds, trace, expected):
    wtmp = os.path.join(tmp, name)
    os.makedirs(wtmp, exist_ok=True)
    notes = []
    correct = True

    # Reference digest: the library's own driver, outside the timed region.
    ref = None
    if name != "fig7-engine":
        ref = rep(exe, env, "reference", name, seed, wtmp)
        if ref is None:
            correct = False
            notes.append("reference run FAILED")
    want = ref["digest"] if ref else None
    if seed == DEFAULT_SEED:
        recorded = expected.get(name)
        if want is not None and want != recorded:
            correct = False
            notes.append(f"reference digest {want} != recorded {recorded}")
        want = recorded
    if name == "serve-pjbb-2d" and ref is not None:
        o = rep(exe, env, "oracle", name, seed, wtmp)
        ok = o is not None and o["sim_digest"] == ref["sim_digest"]
        notes.append("oracle check: " + ("identical" if ok else "DIVERGED"))
        correct = correct and ok

    # Timed repetitions.
    roles = ["timed", "traced"] if trace else ["timed"]
    got = {r: [] for r in roles}
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while True:
        for role in roles:
            r = rep(exe, env, role, name, seed, wtmp)
            attempted += 1
            if r is not None and want is None:
                want = r["digest"]  # no reference: repetitions must agree
            if r is None or r["digest"] != want:
                failed += 1
                if r is not None:
                    notes.append(f"{role} digest {r['digest']} != {want}")
            else:
                got[role].append(r)
        if time.monotonic() >= deadline and len(got["timed"]) >= MIN_REPS:
            break
        if time.monotonic() >= deadline + 60:
            break  # repetitions keep failing
    shutil.rmtree(wtmp, ignore_errors=True)

    timed = got["timed"]
    steady = [r["wall_s"] - r["setup_s"] for r in timed]
    e2e = {
        "wall_s": median([r["wall_s"] for r in timed]),
        "setup_s": median([r["setup_s"] for r in timed]),
        "alloc_mb_per_s": median([r["steady_mb"] / s for r, s in zip(timed, steady)]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in timed]),
    }
    extra = {
        "runs_per_s": median([r["runs"] / r["wall_s"] for r in timed]),
        "failed_frac": failed / attempted,
    }
    if name == "serve-pjbb-2d":
        extra["requests_per_s"] = median([r["requests"] / s for r, s in zip(timed, steady)])
    layers = {}
    if trace:
        traced = got["traced"]
        keys = sorted({k for r in traced for k, v in r.items()
                       if isinstance(v, (int, float)) and k not in REP_FIELDS})
        layers = {k: median([r.get(k, 0) for r in traced]) for k in keys}
        if e2e["wall_s"] > 0:
            layers["trace.overhead"] = layers.get("trace.wall_s", 0.0) / e2e["wall_s"]
    sample = ref or (timed[0] if timed else {})
    return {
        "workload": name,
        "config": WORKLOADS[name],
        "correct": correct and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "digest": want,
        "notes": notes,
        "reps": len(timed),
        "e2e": e2e,
        "extra": extra,
        "layers": layers,
        "modeled": sample.get("modeled", {}),
        "table": sample.get("table"),
        "ocaml": sample.get("ocaml", "unknown"),
        "wall_s_all": [r["wall_s"] for r in timed],
    }


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(res, bench, host, trace):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"== perfbench {res['workload']}: {res['config']}")
    print("host      " + "  ".join(f"{k}={v}" for k, v in host.items()) +
          f"  ocaml={res['ocaml']}")
    print(f"check     digest={res['digest']}  attempted={res['attempted']}  "
          f"failed={res['failed']}  correct={res['correct']}")
    for n in res["notes"]:
        print("          " + n)
    print(f"reps      {res['reps']} untraced; wall_s " +
          " ".join(f"{w:.3f}" for w in res["wall_s_all"]))
    print("end-to-end (host time, tracing off; medians over repetitions)")
    for k, v in res["e2e"].items():
        print(f"  {k:<18} {fmt(v):>14} {units[k]}")
    extra_units = {"runs_per_s": "1/s", "failed_frac": "ratio", "requests_per_s": "1/s"}
    for k, v in res["extra"].items():
        print(f"  {k:<18} {fmt(v):>14} {extra_units[k]}")
    print("modeled (the simulated machine, not host performance)")
    for k, v in res["modeled"].items():
        print(f"  {k:<18} {fmt(v):>14}")
    if res["table"]:
        print(res["table"], end="")
    if trace:
        lay = res["layers"]
        wall = lay.get("trace.wall_s", 0.0)
        print(f"per layer (traced run; medians; traced wall {fmt(wall)} s, "
              f"unattributed {fmt(lay.get('unattributed_s', 0.0))} s, "
              f"overhead x{fmt(lay.get('trace.overhead', 0.0))})")
        print(f"  {'layer':<18} {'self_s':>12} {'count':>12} {'share':>8}")
        rows = [(r, lay.get("job.wall_s", wall)) for r in RUN_ROWS] + [(r, wall) for r in REP_ROWS]
        for (row, self_key, count_key), base in rows:
            if self_key not in lay:
                continue
            s = lay[self_key]
            c = lay.get(count_key, "") if count_key else ""
            share = s / base if base > 0 else 0.0
            print(f"  {row:<18} {fmt(s):>12} {fmt(c):>12} {share:8.1%}")
        for k, v in lay.items():
            unit = units.get(k) or next(
                (u for sfx, u in (("_ms", "ms"), ("_s", "s"), (".count", "count")) if k.endswith(sfx)), "")
            print(f"  {k:<32} {fmt(v):>14} {unit}")
    print(json.dumps({"report": {"workload": res["workload"],
                                 "host": {**host, "ocaml": res["ocaml"]},
                                 "modeled": res["modeled"], "extra": res["extra"],
                                 "digest": res["digest"]}}))


def metrics_of(res, bench, trace):
    if trace:
        return {m["name"]: {"value": res["layers"].get(m["name"], 0), "unit": m["unit"]}
                for m in bench["per_layer"]}
    return {m["name"]: {"value": res["e2e"][m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description="Host-time benchmark of the kingsguard simulator")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a kingsguard checkout (no dune-project and lib/ here)", 2)
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "expected_digests.json")) as f:
            expected = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read benchmark description: {e}", 2)

    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env, tmp = build_env(build_dir)
    exe = build(build_dir, env)
    host = {"cpu": cpu_model(), "nproc": os.cpu_count(), "commit": commit(), "seed": args.seed}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(exe, env, tmp, name, args.seed, seconds, args.trace, expected)
        report(res, bench, host, args.trace)
        results.append(res)

    if len(results) == 1:
        metrics = metrics_of(results[0], bench, args.trace)
    else:
        print("== summary (medians; host time)")
        for res in results:
            print(f"  {res['workload']:<16} " + "  ".join(
                f"{k}={fmt(v)}" for k, v in {**res["e2e"], **res["extra"]}.items()))
        metrics = {f"{res['workload']}/{k}": v for res in results
                   for k, v in metrics_of(res, bench, args.trace).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
