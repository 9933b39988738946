"""Benchmark for binapprox: Monte Carlo rate sweeps and exact certificates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.WHY``): ``sweep-rscan``,
``sweep-matern``, ``exact-certify``.

A run first warms the import in a throwaway process and writes the plan's
input files, then repeats passes over the workload's operations, each pass
in a fresh interpreter, until ``--seconds`` are used up (at least
``MIN_PASSES``).  ``--trace 0`` runs untraced passes and reports the
end-to-end metrics as medians over passes; the time left over when
another pass would not fit goes to fresh interpreters that only time the
import, for ``setup_s``.  ``--trace 1`` cycles through
untraced, decomposed and traced passes (see ``worker.py``), checks that all
three produce bit-identical output rows, and reports the per-layer metrics
of ``tracing.PER_LAYER``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report,
with provenance and per-operation output digests, is written to
``perfbench/.work/<workload>-seed<N>-trace<T>/report.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
# A run, its prepare step included, ends within this many seconds; a pass
# that would overrun it is killed and the run fails.
RUN_DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# An end-to-end metric never reads 0.  mc_points_per_s (0 on exact-certify,
# which samples nothing) and fail_frac (0 wherever nothing fails) are on the
# per-layer line, where 0 is allowed, and in the summary lines of both modes.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_METRICS = ("mc_points_per_s", "fail_frac")


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env.setdefault(var, str(_nproc()))
    return env


def source_digest(root: str) -> str:
    """sha256 over the package sources, names and contents; it identifies
    the code under test where no git SHA is available."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "binapprox")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()


def provenance(root: str, versions: dict, env: dict) -> dict:
    """Where a result came from; thread variables as the passes saw them."""
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    l3 = "unknown"
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size",
                  encoding="ascii") as fh:
            l3 = fh.read().strip()
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": source_digest(root), **versions,
            "machine": platform.machine(), "nproc": _nproc(), "l3_cache": l3,
            "thread_env": {v: env.get(v) for v in THREAD_VARS}}


def _worker(mode: str, plan_path: str, out_path: str, root: str,
            env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, plan_path,
           out_path]
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass ran past the {RUN_DEADLINE_S} s "
                         "deadline of the run") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    with open(out_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _same_output(untraced: dict, traced: dict) -> bool:
    """Every field the CLI printed is reproduced bit for bit by the
    decomposed calls (which may report extra fields, such as the app)."""
    if untraced["rows"] is None or traced["rows"] is None:
        return untraced["rows"] is traced["rows"]
    if len(untraced["rows"]) != len(traced["rows"]):
        return False
    pairs = list(zip(untraced["rows"], traced["rows"]))
    pairs.append((untraced["footer"], traced["footer"]))
    return all(t.get(k) == v for u, t in pairs for k, v in u.items())


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: str = ".", sizes: dict = workloads.FULL) -> dict:
    """One benchmark run; returns the full report."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    root = os.path.abspath(root)
    if not os.path.isfile(os.path.join(root, "src", "binapprox", "cli.py")):
        raise BenchError(f"no binapprox sources under {root}/src; run from "
                         "the root of a source checkout")
    workdir = os.path.join(HERE, ".work",
                           f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    plan = workloads.plan(workload, seed, workdir, sizes)
    plan["trace"] = trace
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    env = child_env(root)

    prep = _worker("prepare", plan_path, os.path.join(workdir, "prepare.json"),
                   root, env, deadline)
    modes = ("untraced", "decomposed", "traced") if trace else ("untraced",)
    passes = {m: [] for m in modes}
    t_start = time.perf_counter()
    durations = []
    while True:
        # Every other cycle runs the traced pass before the decomposed one,
        # so that the order within a cycle does not bias trace.overhead_s.
        order = modes if len(passes["untraced"]) % 2 == 0 else modes[::-1]
        for mode in order:
            t0 = time.perf_counter()
            out = os.path.join(workdir, f"{mode}-{len(passes[mode])}.json")
            passes[mode].append(_worker(mode, plan_path, out, root, env,
                                        deadline))
            durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        cycle = sum(durations) / len(passes["untraced"])
        if (len(passes["untraced"]) >= MIN_PASSES
                and elapsed + cycle > seconds):
            break
    # The time left is too short for another cycle; fill it with fresh
    # interpreters that only import binapprox, so that setup_s is a median
    # over more imports where passes are long.
    probes = []
    probe_s = max(p["setup_s"] for m in modes for p in passes[m]) + 0.5
    while time.perf_counter() - t_start + probe_s <= seconds:
        t0 = time.perf_counter()
        out = os.path.join(workdir, f"setup-{len(probes)}.json")
        probes.append(_worker("setup", plan_path, out, root, env, deadline))
        probe_s = max(probe_s, time.perf_counter() - t0)

    untraced = passes["untraced"]
    all_passes = [p for m in modes for p in passes[m]]
    attempted = sum(len(p["ops"]) for p in all_passes)
    failed = sum(1 for p in all_passes for o in p["ops"]
                 if o["error"] or o["checks_failed"])
    wrong = sorted({f"{o['id']}: {c}" for p in all_passes for o in p["ops"]
                    for c in o["checks_failed"]})
    # The same seed must give the same output rows on every pass.
    digests = {}
    for p in untraced:
        for o in p["ops"]:
            digests.setdefault(o["id"], set()).add(o["digest"])
    unstable = sorted(k for k, v in digests.items() if len(v) > 1)
    mismatched = sorted({u["id"] for m in modes[1:] for p in passes[m]
                         for u, t in zip(untraced[0]["ops"], p["ops"])
                         if not _same_output(u, t)})
    correct = not (wrong or unstable or mismatched)

    wall = _median([p["wall_s"] for p in untraced])
    points = sum(op.get("mc_points", 0.0) for op in plan["ops"])
    e2e = {"wall_s": wall,
           "setup_s": _median([p["setup_s"]
                               for p in all_passes + probes]),
           "peak_rss_mb": _median([p["peak_rss_mb"] for p in untraced]),
           "mc_points_per_s": points / wall if wall > 0 else 0.0,
           "fail_frac": failed / attempted}
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "why": workloads.WHY[workload],
              "provenance": provenance(root, prep["versions"], env),
              "passes": {m: len(v) for m, v in passes.items()},
              "setup_probes": len(probes),
              "pass_wall_s": {m: [p["wall_s"] for p in v]
                              for m, v in passes.items()},
              "correct": correct, "attempted": attempted, "failed": failed,
              "failed_checks": wrong, "unstable_ops": unstable,
              "traced_mismatch": mismatched,
              "op_errors": sorted({f"{o['id']}: {o['error']}"
                                   for p in all_passes for o in p["ops"]
                                   if o["error"]}),
              "op_digests": {o["id"]: o["digest"] for o in untraced[0]["ops"]},
              "op_wall_s": {o["id"]: _median([p["ops"][i]["wall_s"]
                                              for p in untraced])
                            for i, o in enumerate(untraced[0]["ops"])},
              "end_to_end": e2e}
    if trace:
        traced = passes["traced"]
        layers = {}
        for name, (_unit, rule, _moves, _wl) in tracing.PER_LAYER.items():
            if name in tracing.SETUP_METRICS:
                layers[name] = prep["layer_metrics"][name]
            elif rule[0] != "run":
                layers[name] = _median([p["layer_metrics"][name]
                                        for p in traced])
        layers.update({k: e2e[k] for k in RUN_METRICS})
        # Each traced pass runs right after a decomposed pass of the same
        # code without the wrappers; the median of the paired differences
        # is the cost of the wrappers and cancels slow spells of a shared
        # host.  Timing noise can make it negative.
        layers["trace.overhead_s"] = _median(
            [t["wall_s"] - d["wall_s"]
             for d, t in zip(passes["decomposed"], traced)])
        report["per_layer"] = layers
    with open(os.path.join(workdir, "report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    report["report_path"] = os.path.relpath(
        os.path.join(workdir, "report.json"), root)
    return report


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]}
                   for k, v in report["per_layer"].items()}
    else:
        metrics = {k: {"value": report["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def summary_lines(report: dict) -> list[str]:
    units = {**END_TO_END, **{k: tracing.PER_LAYER[k][0]
                              for k in RUN_METRICS}}
    lines = [f"# {report['workload']} seed={report['seed']} "
             f"passes={report['passes']} report={report['report_path']}",
             f"# provenance {json.dumps(report['provenance'])}"]
    for k, v in report["end_to_end"].items():
        lines.append(f"{k} {v:.6g} {units[k]}")
    for k, v in report.get("per_layer", {}).items():
        if k not in report["end_to_end"]:
            lines.append(f"{k} {v:.6g} {tracing.PER_LAYER[k][0]}")
    for k in ("failed_checks", "unstable_ops", "traced_mismatch",
              "op_errors"):
        for item in report[k]:
            lines.append(f"# {k}: {item}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(summary_lines(report)))
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
