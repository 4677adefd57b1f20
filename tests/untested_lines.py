"""List the lines of `src/artifact` that no test runs.

Runs pytest in this process under the standard library's `trace` module
and prints, per module, the executable lines that were never executed.
Extra arguments go to pytest, for example:

    python tests/untested_lines.py                 # every test but the acceptance criteria
    python tests/untested_lines.py -m ""           # the whole suite, a few minutes

Without a `-m`, the `acceptance` marker is deselected, and a line on
stderr says so: tracing slows the suite several times over, so an
acceptance criterion with a wall-clock gate (criterion 2) can fail under
it for no fault of the code. Pass a `-m` to choose the tests yourself.

The exit code is 1 when any line is listed, else pytest's, so "no
untested line" can gate a run.

The package must be imported only under the tracer, so that module-level
lines count: this script does not import it itself.
"""

import dis
import sys
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "artifact"


def executable_lines(path: Path) -> set:
    """Line numbers that start an instruction in any code object of `path`."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def main(argv) -> int:
    if not any(arg.startswith("-m") for arg in argv):
        print('untested_lines: no -m given, running -m "not acceptance"', file=sys.stderr)
        argv = ["-m", "not acceptance", *argv]
    # No `ignoredirs`: `trace` caches its ignore decision by bare module
    # name, so an ignored library's `__init__` would hide the package's.
    tracer = trace.Trace(count=1, trace=0)
    code = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    ran = {(Path(f).resolve(), line) for f, line in tracer.results().counts}
    listed = False
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(line for line in executable_lines(path) if (path, line) not in ran)
        if missed:
            print(f"{path.name}: {', '.join(map(str, missed))}")
            listed = True
    return 1 if listed else int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
