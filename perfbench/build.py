"""Build file of the benchmark: compiles the program (src/main/scala) and the
benchmark (perfbench/src) with the Scala compiler that ships in Spark's jars.

    python3 perfbench/build.py        # prints the classpath to run with

Classes go to perfbench/.build/classes. A stamp of the sources and the JDK
skips the compile when nothing changed.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
BENCH_SRC = BENCH / "src"
OUT = BENCH / ".build"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """The jars of the Spark distribution named by SPARK_HOME, or else of the
    first one whose bin/spark-submit is on PATH."""
    if os.environ.get("SPARK_HOME"):
        homes = [Path(os.environ["SPARK_HOME"])]
    else:
        homes = [Path(d).parent for d in os.environ.get("PATH", "").split(os.pathsep)
                 if d and (Path(d) / "spark-submit").is_file()]
    for home in homes:
        if any((home / "jars").glob("scala-compiler-*.jar")):
            return home / "jars"
    raise BuildError("no Spark distribution with a Scala compiler found (set SPARK_HOME)")


def sources() -> list:
    if not PROGRAM_SRC.is_dir():
        raise BuildError(f"program sources not found at {PROGRAM_SRC}: run from a checkout of the repository")
    found = sorted(PROGRAM_SRC.rglob("*.scala")) + sorted(BENCH_SRC.rglob("*.scala"))
    if not found:
        raise BuildError("no Scala sources to build")
    return found


def java_version() -> str:
    out = subprocess.run(["java", "-version"], capture_output=True, text=True, timeout=60)
    return out.stderr.strip().splitlines()[0] if out.stderr else "unknown"


def stamp(srcs: list, jars: Path) -> str:
    h = hashlib.sha256()
    h.update(java_version().encode())
    h.update(str(jars).encode())
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build() -> str:
    """Compiles if needed; returns the run classpath."""
    jars = spark_jars()
    srcs = sources()
    classes = OUT / "classes"
    want = stamp(srcs, jars)
    stamp_file = OUT / "stamp"
    if not (classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == want):
        tmp = OUT / "classes.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        cp = str(jars / "*")
        cmd = ["java", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}", "-cp", cp,
               "scala.tools.nsc.Main", "-nowarn", "-d", str(tmp), "-classpath", cp] + [str(p) for p in srcs]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=800)
        if done.returncode != 0:
            raise BuildError("compile failed:\n" + (done.stdout + done.stderr)[-4000:])
        shutil.rmtree(classes, ignore_errors=True)
        tmp.rename(classes)
        stamp_file.write_text(want)
    return os.pathsep.join([str(classes), str(BENCH / "conf"), str(jars / "*")])


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        sys.exit(2)
