#!/usr/bin/env python3
"""coredis-bench entry point.

Builds the benchmark program (and the coredis_campaign / coredis_serve
programs it drives) from the sources of the checkout it runs in, then
runs one workload:

    python3 coredis_bench/run.py --workload cold_hetero --seed 1 \
        --seconds 30 --trace 0

Run it from the root of the checkout. The build lives under
$CARGO_TARGET_DIR (default .bench_build) so repeated runs reuse it.
Build output goes to stderr; the program prints its result as the last
line of stdout. A failed build exits non-zero without a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def cache_source_dir(cache_path):
    """The source directory a CMake build tree was configured for."""
    try:
        with open(cache_path, encoding="utf-8", errors="replace") as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache) and cache_source_dir(cache) != HERE:
        shutil.rmtree(build_dir)  # a tree configured for another checkout
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "coredis_bench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "coredis_bench")
    try:
        program = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as failure:
        print(f"coredis_bench: build failed: {failure}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execv(program, [program] + sys.argv[1:])
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
