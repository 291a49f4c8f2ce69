"""sigforge benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload generate-impaired --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from a checkout of the repository; the program is imported from its
``src`` directory, so there is nothing to build. With ``--trace 0`` the
result holds the end-to-end metrics, measured untraced; with
``--trace 1`` it holds the per-layer metrics of the traced run. The
last line of standard output is the result as JSON. The exit code is 0
only when every operation succeeded and every output was correct.
``--self-check`` runs every workload at a tiny size, and checks that the
correctness gates catch corrupted output; it takes well under a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("generate-impaired", "generate-clean", "serve-impaired", "validate-impaired")
END_TO_END = (("setup_s", "s"), ("frames_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mib", "MiB"))


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_one(workload: str, seed: int, seconds: float, trace: bool, scale) -> "bench.Outcome":
    ctx = bench.Context(workload, seed, seconds, scale,
                        ROOT / "perfbench" / ".work" / f"{workload}-{os.getpid()}")
    ctx.work.mkdir(parents=True, exist_ok=True)
    generate = {"generate-impaired": ("impaired-train", scale.impaired_per_class, 1),
                "generate-clean": ("clean-train", scale.clean_per_class, ctx.nproc)}
    try:
        if workload in generate:
            return (tracing.trace_generate if trace else bench.run_generate)(
                ctx, *generate[workload])
        if workload == "serve-impaired":
            return (tracing.trace_serve if trace else bench.run_serve)(ctx)
        return (tracing.trace_validate if trace else bench.run_validate)(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def expected_metrics(trace: bool) -> list[tuple[str, str]]:
    return list(tracing.PER_LAYER) if trace else list(END_TO_END)


def report(workload: str, out, trace: bool) -> bool:
    """Print the run's metrics for people, then the JSON line. Returns
    whether the run is correct and complete."""
    print(f"workload: {workload}  trace: {int(trace)}")
    print(f"machine: {json.dumps(machine_facts())}")
    for note in out.notes:
        print(f"note: {note}")
    for name, (value, unit) in out.metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"failed_share: {out.failed / max(out.attempted, 1):.6g} "
          f"({out.failed} of {out.attempted} operations)")
    print(f"output_sha256: {out.output_sha256}")
    result = {
        "correct": out.failed == 0 and out.attempted >= 1,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }
    complete = [(n, u) for n, (_v, u) in out.metrics.items()] == expected_metrics(trace)
    print(json.dumps(result))
    return result["correct"] and complete


def run_all(args) -> int:
    """Every workload, each in its own interpreter; the final line merges
    their results with workload-prefixed metric names."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0
        if not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if ok and merged["correct"] else 1


def self_check() -> int:
    """Tiny runs of every workload plus checks that the gates catch
    corrupted output. Raises AssertionError on the first problem."""
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench_json["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench_json["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench_json["per_layer"]] == list(tracing.PER_LAYER)

    spans = [["trace", 0, 100, -1, 0], ["a", 10, 60, 0, 0], ["b", 20, 30, 1, 0],
             ["b", 40, 50, 1, 0]]
    stats = tracing.summarize(spans)
    assert (stats["trace"].self_ns, stats["a"].self_ns, stats["b"].busy_ns) == (50, 30, 20)

    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as tmp:
        root = Path(tmp) / "d"
        config = bench.job_config("clean-train", 1, 5)
        manifest = bench.ds.write_shards(config, root)
        problems, samples = bench.check_dataset(root, manifest, config, [0, 40])
        assert not problems and not bench.compare_samples(samples)
        shard = root / "shard-00000.iq"
        raw = bytearray(shard.read_bytes())
        raw[8 * 4096 * 40 + 3] ^= 0x01
        shard.write_bytes(bytes(raw))
        problems, samples = bench.check_dataset(root, manifest, config, [0, 40])
        assert problems and bench.compare_samples(samples), "a flipped bit went unnoticed"

    request = {"seed": 1, "start_index": 0}
    payload = bench.server.build_batch(request, bench.server.ServerDefaults())
    assert bench.response_problem(2, payload, request) is None
    assert bench.response_problem(2, payload, {"seed": 1, "start_index": 32})
    assert bench.response_problem(255, b'{"error": "x"}', request)
    assert hashlib.sha256(payload).hexdigest() == bench.expected_response_sha(request)
    assert bench.validate_problem(0, "digest: PASS\nclass-balance: FAIL\n")

    for workload in WORKLOADS:
        for trace in (False, True):
            out = run_one(workload, 0, 0.1, trace, bench.SMOKE)
            names = [(n, u) for n, (_v, u) in out.metrics.items()]
            assert out.failed == 0 and out.attempted >= 1, (workload, trace, out.notes)
            assert names == expected_metrics(trace), (workload, trace, names)
            assert len(out.output_sha256) == 64
            print(f"self-check: {workload} trace={int(trace)} ok")
    print("self-check: all ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "sigforge" / "__init__.py").is_file():
        print(f"error: no sigforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    global bench, tracing
    import bench
    import tracing

    if args.self_check:
        return self_check()
    if args.workload == "all":
        return run_all(args)
    out = run_one(args.workload, args.seed, args.seconds, bool(args.trace), bench.FULL)
    return 0 if report(args.workload, out, bool(args.trace)) else 1


if __name__ == "__main__":
    sys.exit(main())
