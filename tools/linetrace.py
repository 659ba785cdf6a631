"""Run the Tier-1 suite in-process under a stdlib line tracer and list the
executable lines of src/epcag it never runs. Exits non-zero when the
suite fails, a line outside ALLOW is never run, or an ALLOW entry is
stale: it matches no line that is never run.

    python tools/linetrace.py [pytest arguments]

Executable lines are those the compiled modules' code objects report
through co_lines; run lines are those sys.settrace sees execute.
"""

import os
import sys
import threading
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "epcag"
# lines Tier-1 cannot run in-process, by file: the name of a code object
# (its whole body) or a line's stripped text
ALLOW = {
    # `python -m epcag` runs it, and only subprocess tests do that
    "__main__.py": {"<module>"},
    # runs when cli.py is the script; the tests call main() instead
    "cli.py": {"sys.exit(main())"},
    # dir(epcag) is checked in a fresh interpreter, as the lazy names
    # must not be loaded before it
    "__init__.py": {"__dir__"},
}
_ours: dict[str, bool] = {}
hit: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        _ours[name] = Path(os.path.realpath(name)).parent == SRC
    return _line(frame, event, arg) if _ours[name] else None


def executable(path: Path) -> dict[int, str]:
    """Each executable line of a source file, with the name of the
    innermost code object holding it."""
    lines, todo = {}, [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update((line, code.co_name) for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main(args: list[str]) -> int:
    sys.path.insert(0, str(SRC.parent))
    import pytest

    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    run = {(Path(os.path.realpath(f)).name, line) for f, line in hit if _ours.get(f)}
    missed, used = 0, set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        allow = ALLOW.get(path.name, set())
        for line, code in sorted(executable(path).items()):
            if (path.name, line) in run:
                continue
            matched = allow & {code, text[line - 1].strip()}
            used |= {(path.name, entry) for entry in matched}
            if not matched:
                print(f"never run: src/epcag/{path.name}:{line}: {text[line - 1].strip()}")
                missed += 1
    stale = sorted({(name, entry) for name, entries in ALLOW.items() for entry in entries} - used)
    for name, entry in stale:
        print(f"stale ALLOW entry: {name}: {entry!r} matches no line that is never run")
    print(f"{missed} executable lines of src/epcag never run outside the allowlist")
    return int(status != 0 or missed > 0 or bool(stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
