"""Every ``<module>.<name>`` that the kernels, the package's modules and the
README mention names something that exists: a comment or a doc that still
points at a moved or renamed function fails here."""

import importlib
import re
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
