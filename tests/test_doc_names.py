"""Every ``<module>.<name>`` that the kernels, the package's modules and the
README mention names something that exists: a comment or a doc that still
points at a moved or renamed function fails here.  So does a Sphinx role
whose target names a module that does not exist."""

import importlib
import re
import sys
from pathlib import Path

import optpaths

PACKAGE = Path(optpaths.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

#: a module name, a dot and a name, not inside a longer dotted name;
#: ``<module>.py`` names the file
MENTION = re.compile(r"(?<![\w.])(%s)\.(?!py\b)([A-Za-z_]\w*)"
                     % "|".join(MODULES))


def mentions():
    """(file:line, module, name) for every mention in the scanned files."""
    files = [*sorted(PACKAGE.glob("*.py")), PACKAGE / "kernels.c",
             PACKAGE.parents[1] / "README.md"]
    for path in files:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for m in MENTION.finditer(line):
                yield f"{path.name}:{lineno}", *m.groups()


def test_every_mentioned_name_exists():
    missing = [f"{where}: {mod}.{name}" for where, mod, name in mentions()
               if not hasattr(importlib.import_module(f"optpaths.{mod}"),
                              name)]
    assert missing == []


def test_the_scan_reads_all_three_kinds_of_file():
    where = {w.split(":")[0] for w, _, _ in mentions()}
    assert {"kernels.c", "README.md", "pipeline.py"} <= where


#: a Sphinx role and its target, as in :func:`graph.read_data`
ROLE = re.compile(r":(mod|func|class|data|meth|attr):`~?([\w.]+)`")


def role_targets():
    """(file:line, role, target) for every role in the package's modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for m in ROLE.finditer(line):
                yield f"{path.name}:{lineno}", *m.groups()


def test_every_role_target_names_an_existing_module():
    # a :mod: target is a module; the first part of any other dotted
    # target is one, of the package or of the standard library
    stale = []
    for where, role, target in role_targets():
        if role != "mod" and "." not in target:
            continue
        name = target.removeprefix("optpaths.")
        module = name if role == "mod" else name.split(".")[0]
        if module not in MODULES and module not in sys.stdlib_module_names:
            stale.append(f"{where}: :{role}:`{target}`")
    assert stale == []


def test_the_role_scan_reads_every_kind_of_target():
    found = {(role, "." in target) for _, role, target in role_targets()}
    assert {("mod", False), ("func", True), ("class", True),
            ("data", True), ("attr", True)} <= found
