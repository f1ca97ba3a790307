"""Benchmark entry point: one workload in a fresh single-threaded process.

    python3 perfbench/run.py --workload font_train --seed 1 --seconds 20 --trace 0

Starts ``bench.py`` in a child process with BLAS pinned to one thread,
records the environment beside its result in ``perfbench/out/``, prints a
readable summary and, as the last stdout line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json and ``--trace 1`` the per-layer ones.
Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unavailable"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="font_train, font_eval, nst_stylize or nst_train")
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full",
                        help="full, or tiny to shrink every input for the smoke test")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run so that it kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "stylemix" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'stylemix'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, str(HERE / "bench.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--out-dir", str(out_dir),
               "--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: workload process exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    environment = result.pop("environment")
    detail = result.pop("detail")
    environment.update({
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "pinned_threads": {name: env[name] for name in PINNED},
    })
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": environment,
              **result, "detail": detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} size={args.size} "
          f"ops attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    print("# environment " + json.dumps(environment, sort_keys=True))
    for metric, entry in result["metrics"].items():
        print(f"#   {metric:34s} {entry['value']!r:>24} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
