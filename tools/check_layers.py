#!/usr/bin/env python3
"""Checks that every #include in src/ follows the library DAG in CMakeLists.txt.

    python3 tools/check_layers.py [REPO_ROOT]

Each `iddq_library(<name> <deps...>)` line declares what src/<name>/ may
include. A file under src/<name>/ that includes "<other>/..." fails the
check unless <other> is <name> or one of its declared dependencies. Exit
status 1 lists every violation; 0 prints a one-line summary.
"""
import pathlib
import re
import sys

LIBRARY = re.compile(r"^\s*iddq_library\(\s*(\w+)((?:\s+\w+)*)\s*\)", re.M)
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"/]+)/', re.M)


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    cmake = (root / "CMakeLists.txt").read_text()
    allowed = {name: {name, *deps.split()}
               for name, deps in LIBRARY.findall(cmake)}
    if not allowed:
        print("check_layers: no iddq_library() lines in CMakeLists.txt")
        return 1

    violations = []
    files = 0
    for name, ok in sorted(allowed.items()):
        for path in sorted((root / "src" / name).rglob("*")):
            if path.suffix not in (".hpp", ".cpp"):
                continue
            files += 1
            for other in INCLUDE.findall(path.read_text()):
                if other not in ok:
                    violations.append(
                        f"{path.relative_to(root)}: includes \"{other}/...\" "
                        f"but {name} depends only on "
                        f"{', '.join(sorted(ok - {name})) or 'nothing'}")
    for v in violations:
        print(v)
    if violations:
        print(f"check_layers: FAILED ({len(violations)} includes against "
              f"the library DAG)")
        return 1
    print(f"check_layers: {files} files in {len(allowed)} libraries follow "
          f"the library DAG")
    return 0


if __name__ == "__main__":
    sys.exit(main())
