"""EmbDI benchmark: builds the program from source, runs one workload in a
closed loop (a warm-up op, then the measured ops) and prints its metrics; the
last line of standard output is one JSON object.

    python3 perfbench/run.py --workload pair-im --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, then writes BENCHMARK.json
    python3 perfbench/run.py --smoke             # every op path on tiny inputs, with all checks
    python3 perfbench/run.py --anchor            # pair-im at IM's default seed vs the committed numbers

See perfbench/README.md for the workloads, the metrics and how they relate.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

BENCH = build.BENCH
ROOT = build.ROOT
WORK = BENCH / ".work"

RUN_SECONDS = 25
HEAP = "3g"
# With G1, op_s of a planted-ER op on seeds 101-105 ranged over 2.19-2.81 s;
# with the parallel collector, over 2.46-2.63 s.
GC = "-XX:+UseParallelGC"

WORKLOADS = [
    ("pair-im", "IM scenario through EmbDI-O, SM, ER at n_top 1/10/100 and MA/MR/MC: the headline use; training and Spark DataFrame passes dominate"),
    ("baselines-fz", "Node2Vec, HARP and Basic builds on FZ: the only workload running HARP coarsening and Basic's corpus"),
]

END_TO_END = [
    {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    # Its IQR/median over seeds 101-110 was at most 0.025 (pair-im); for a
    # fixed seed it is deterministic.
    {"name": "quality", "unit": "ratio", "better": "higher", "bound": 0.08},
]


def _layer(name, unit, better):
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [_layer(n, u, b) for n, u, b in [
    ("tokenize.shared_ms", "ms", "lower"),
    ("tokenize.distinct_ms", "ms", "lower"),
    ("graph.edges_ms", "ms", "lower"),
    ("graph.cells", "count", "higher"),
    ("graph.edges", "count", "higher"),
    ("graph.dedup_ratio", "ratio", "higher"),
    ("csr.build_ms", "ms", "lower"),
    ("csr.nodes.token", "count", "higher"),
    ("csr.nodes.rid", "count", "higher"),
    ("csr.nodes.cid", "count", "higher"),
    ("walk.ms", "ms", "lower"),
    ("walk.tokens", "count", "higher"),
    ("walk.tokens_per_s", "1/s", "higher"),
    ("walk.start_nodes", "count", "higher"),
    ("walk.rule_ratio", "ratio", "higher"),
    ("n2v.walk_ms", "ms", "lower"),
    ("n2v.walk_tokens_per_s", "1/s", "higher"),
    ("train.ms", "ms", "lower"),
    ("train.tokens_per_s", "1/s", "higher"),
    ("train.vocab", "count", "higher"),
    ("train.rid_coverage", "ratio", "higher"),
    ("harp.ms", "ms", "lower"),
    ("basic.ms", "ms", "lower"),
    ("topk.ms", "ms", "lower"),
    ("topk.queries", "count", "higher"),
    ("topk.queries_per_s", "1/s", "higher"),
    ("er.ms.ntop1", "ms", "lower"),
    ("er.ms.ntop10", "ms", "lower"),
    ("er.ms.ntop100", "ms", "lower"),
    ("er.match_ms", "ms", "lower"),
    ("er.pairs", "count", "higher"),
    ("er.f1.ntop1", "ratio", "higher"),
    ("er.f1.ntop10", "ratio", "higher"),
    ("er.f1.ntop100", "ratio", "higher"),
    ("sm.cids_ms", "ms", "lower"),
    ("sm.base_ms", "ms", "lower"),
    ("quality.eval_ms", "ms", "lower"),
    ("sm_f1", "ratio", "higher"),
    ("er_f1", "ratio", "higher"),
    ("quality_avg", "ratio", "higher"),
    ("phase.corpus_ms", "ms", "lower"),
    ("phase.embed_ms", "ms", "lower"),
    ("phase.match_ms", "ms", "lower"),
    ("trace.overhead.op", "ratio", "lower"),
    ("trace.overhead.corpus", "ratio", "lower"),
    ("trace.overhead.embed", "ratio", "lower"),
    ("trace.overhead.match", "ratio", "lower"),
    ("crosscheck.g_ratio", "ratio", "lower"),
    ("crosscheck.w_ratio", "ratio", "lower"),
    ("crosscheck.e_ratio", "ratio", "lower"),
    ("spark.jobs", "count", "lower"),
    ("spark.tasks", "count", "lower"),
    ("spark.failed_tasks", "count", "lower"),
    ("spark.jobs.tokenize", "count", "lower"),
    ("spark.jobs.graph", "count", "lower"),
    ("spark.jobs.csr", "count", "lower"),
    ("spark.jobs.walk", "count", "lower"),
    ("spark.jobs.n2v", "count", "lower"),
    ("spark.jobs.train", "count", "lower"),
    ("spark.jobs.harp", "count", "lower"),
    ("spark.jobs.basic", "count", "lower"),
    ("spark.jobs.topk", "count", "lower"),
    ("spark.jobs.sm", "count", "lower"),
    ("jvm.gc_ms", "ms", "lower"),
    ("jvm.alloc_gb", "GB", "lower"),
]]


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def write_manifest() -> None:
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")


def jvm_command(classpath: str, args: list) -> list:
    opens = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
             "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
             "sun.nio.cs", "sun.security.action", "sun.util.calendar"]
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", GC, "-XX:-UsePerfData",
             f"-Djava.io.tmpdir={tmp}", "-Dspark.driver.host=127.0.0.1"]
            + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in opens]
            + ["-cp", classpath, "repro.perfbench.Main"] + args + ["--work", str(WORK)])


def run_jvm(args: list, deadline: float) -> subprocess.CompletedProcess:
    classpath = build.build()
    timeout = max(10.0, deadline - time.monotonic())
    return subprocess.run(jvm_command(classpath, args), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    done = run_jvm(["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)], deadline)
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: JVM exited {done.returncode}\n{done.stderr[-3000:]}")
    raw = json.loads(lines[-1])
    table = PER_LAYER if trace else END_TO_END
    units = {m["name"]: m["unit"] for m in table}
    if set(raw["metrics"]) != set(units):
        raise RuntimeError(f"{workload}: metrics {sorted(set(raw['metrics']) ^ set(units))} do not match the manifest")
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: {"value": raw["metrics"][n], "unit": units[n]} for n in units},
    }
    record = dict(raw["record"], java=build.java_version(), nproc=os.cpu_count(), heap=HEAP, gc=GC)
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{workload}-{seed}-{trace}.json").write_text(
        json.dumps({"result": result, "record": record}, indent=2) + "\n")
    return result, record


def show(workload: str, result: dict, record: dict) -> None:
    print(f"workload {workload}: attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for n, m in result["metrics"].items():
        print(f"  {n} = {m['value']:.6g} {m['unit']}")
    for p in record.get("problems", []):
        print(f"  problem: {p}")
    print("  record: " + json.dumps({k: v for k, v in record.items() if k != "problems"}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--anchor", action="store_true")
    a = ap.parse_args()
    started = time.monotonic()
    fresh = not (build.OUT / "stamp").is_file()
    deadline = started + (880 if fresh else 175)
    try:
        if a.smoke or a.anchor:
            done = run_jvm(["smoke" if a.smoke else "anchor"], started + 880)
            print(done.stdout, end="")
            if done.returncode != 0:
                print(done.stderr[-3000:], file=sys.stderr)
            return done.returncode
        if a.all:
            for name, _ in WORKLOADS:
                result, record = run_workload(name, a.seed, a.seconds, a.trace, time.monotonic() + 880)
                show(name, result, record)
            write_manifest()
            return 0
        if not a.workload:
            ap.error("--workload is required")
        result, record = run_workload(a.workload, a.seed, a.seconds, a.trace, deadline)
        show(a.workload, result, record)
        print(json.dumps(result))
        return 0
    except (build.BuildError, RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
