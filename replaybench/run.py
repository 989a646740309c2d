#!/usr/bin/env python3
"""Build replaybench from source, then run one workload or the self-test.

Run from the repository root:

  python3 replaybench/run.py --workload campus-flow --seed 1 --seconds 20 --trace 0
  python3 replaybench/run.py --workload city-sharded --seed 1 --seconds 20 --trace 1
  python3 replaybench/run.py --self-test

The build goes to .bench_build/replaybench (Release); snapshots of the
bus-serve workload go to .bench_build/replaybench-work and are removed
when the run ends.  The last line of stdout is the result object
(see replaybench/README.md).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "replaybench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "replaybench-work")
BINARY = os.path.join(BUILD_DIR, "replaybench")
# A run must end well inside three minutes, build excluded.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"replaybench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def configure_and_build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"simulator sources not found under {ROOT}/src")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    build = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    fresh = not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    if (fresh and not run_quiet(configure)) or not run_quiet(build):
        # A cache left by another checkout or generator: start over once.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if not (run_quiet(configure) and run_quiet(build)):
            return False
    return os.path.isfile(BINARY)


def commit_id():
    if os.environ.get("REPLAYBENCH_COMMIT"):
        return os.environ["REPLAYBENCH_COMMIT"]
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check that decorated and bare replays of every "
                        "workload digest identically")
    p.add_argument("--allow-unclean", action="store_true",
                   help="time a non-Release build or an audited / "
                        "forced-scalar environment anyway")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    if not configure_and_build():
        log("build failed")
        return 2

    cmd = [BINARY, "--seed", str(a.seed), "--work-dir", WORK_DIR,
           "--commit", commit_id()]
    if a.self_test:
        cmd.append("--self-test")
        if a.workload:
            cmd += ["--workload", a.workload]
    else:
        cmd += ["--workload", a.workload, "--seconds", str(a.seconds),
                "--trace", str(a.trace)]
    if a.allow_unclean:
        cmd.append("--allow-unclean")

    os.makedirs(WORK_DIR, exist_ok=True)
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=None if a.self_test else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopped")
        return 4
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
