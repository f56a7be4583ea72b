#!/usr/bin/env python3
"""Check that README's knob table names exactly the knobs src/ reads.

    scripts/check_knobs.py

A knob is an "HVAC_..." string literal in a src/ .cc or .h file; a
documented knob is a README.md table row that starts with
| `HVAC_...` |. The check fails, naming each side's extras, when the
two sets differ: a knob nobody documented, or a row for a knob the
code no longer reads. It also fails when src/ reads more than
MAX_KNOBS names, so a new knob has to raise the ceiling in its own
diff. And it fails when tests/, scripts/ or .github/ set an HVAC_*
name src/ does not read (NAME=..., a "NAME", setenv argument or a YAML
NAME: key): a dead setter tests nothing. The harness's own names
(HVAC_*_BIN, HVAC_INTERCEPT_SO, HVAC_SANITIZE, HVAC_TEST_*) are
allowed. perfbench/ is not scanned. Exit 0 when all holds, 1
otherwise.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LITERAL = re.compile(r'"(HVAC_[A-Z0-9_]+)"')
ROW = re.compile(r"^\| `(HVAC_[A-Z0-9_]+)` \|", re.MULTILINE)
SETTER = re.compile(r'\b(HVAC_[A-Z0-9_]+)=|"(HVAC_[A-Z0-9_]+)",|'
                    r"^\s*(HVAC_[A-Z0-9_]+):", re.MULTILINE)
HARNESS = re.compile(r"HVAC_([A-Z0-9_]+_BIN|INTERCEPT_SO|SANITIZE|TEST_[A-Z0-9_]+)")
SETTER_DIRS = ("tests", "scripts", ".github")
# The knob ceiling: lower it when a knob goes, never raise it quietly.
MAX_KNOBS = 27


def main():
    read = set()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".cc", ".h"):
            read.update(LITERAL.findall(path.read_text()))
    documented = set(ROW.findall((ROOT / "README.md").read_text()))

    ok = True
    for name in sorted(read - documented):
        print(f"undocumented: {name} is read in src/ but has no README row")
        ok = False
    for name in sorted(documented - read):
        print(f"stale: {name} has a README row but src/ never reads it")
        ok = False
    for top in SETTER_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file():
                continue
            try:
                text = path.read_text()
            except UnicodeDecodeError:
                continue
            for m in SETTER.finditer(text):
                name = next(g for g in m.groups() if g)
                if name in read or HARNESS.fullmatch(name):
                    continue
                line = text.count("\n", 0, m.start()) + 1
                print(f"dead setter: {path.relative_to(ROOT)}:{line} sets "
                      f"{name}, which src/ never reads")
                ok = False
    if len(read) > MAX_KNOBS:
        print(f"too many knobs: src/ reads {len(read)} HVAC_* names, "
              f"MAX_KNOBS is {MAX_KNOBS}")
        ok = False
    if ok:
        print(f"knobs ok: {len(read)} HVAC_* names, each with one README row")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
