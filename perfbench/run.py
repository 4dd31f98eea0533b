#!/usr/bin/env python3
"""Build and run the Spatialyze wall-time benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tracking-mix --seed 1 --seconds 42 --trace 0

The first run compiles the program's sources (src/main/scala) together
with the benchmark (perfbench/src) with sbt, offline, and records the
classpath; later runs reuse it until a source file changes. The benchmark
then runs in a forked JVM with the --add-opens set Spark needs on JDK 17,
a fixed driver heap and Spark scratch space inside the checkout. The last
line of stdout is the result object.

    python3 perfbench/run.py --pin 0-47 > perfbench/references.tsv

re-pins the reference results (see perfbench/README.md).
"""
import hashlib
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH, "src")]
BUILD_FILES = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER_MEM = "4g"
RUN_TIMEOUT_S = 175

OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_stamp():
    h = hashlib.sha256()
    for top in SOURCES:
        for d, _, files in sorted(os.walk(top)):
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    for p in BUILD_FILES:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def env():
    e = dict(os.environ)
    if not os.path.isdir(os.path.join(e.get("SPARK_HOME", ""), "jars")):
        fail("set SPARK_HOME to a Spark binary distribution (it must hold jars/)")
    e["COURSIER_MODE"] = "offline"
    e["SPARK_DRIVER_MEM"] = DRIVER_MEM
    e["SPARK_LOCAL_DIRS"] = os.path.join(ROOT, ".perfbench", "spark-local")
    if "SBT_OPTS" not in e:
        repos = os.path.expanduser("~/.sbt/repositories")
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
        e["SBT_OPTS"] = " ".join(opts)
    return e


def classpath(e):
    stamp_file = os.path.join(OUT, "stamp")
    cp_file = os.path.join(OUT, "classpath")
    stamp = source_stamp()
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as fh:
                    return fh.read()
    print("perfbench: building (sbt compile)", file=sys.stderr)
    r = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=e, stdout=subprocess.PIPE, text=True, timeout=840)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines or ".jar" not in lines[-1]:
        sys.stderr.write(r.stdout)
        fail("build failed")
    os.makedirs(OUT, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(lines[-1].strip())
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return lines[-1].strip()


def main():
    for p in SOURCES + BUILD_FILES:
        if not os.path.exists(p):
            fail("run from the root of a checkout: %s is missing" % os.path.relpath(p, ROOT))
    e = env()
    cp = classpath(e)
    tmp = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(e["SPARK_LOCAL_DIRS"], exist_ok=True)
    cmd = (["java"] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in OPENS] +
           ["-Xmx" + DRIVER_MEM, "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
            "-Dlog4j2.configurationFile=" + os.path.join(BENCH, "log4j2.properties"),
            "-cp", cp, "perfbench.Main"] + sys.argv[1:])
    if "--pin" not in sys.argv:
        # Set-up time counts from here: after the build, before the JVM starts.
        cmd += ["--t0-ms", str(int(time.time() * 1000))]
        if os.path.exists("/proc/stat"):
            with open("/proc/stat") as fh:
                cmd += ["--t0-cpu", fh.readline().strip()]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=e)
    try:
        code = proc.wait(timeout=None if "--pin" in sys.argv else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
