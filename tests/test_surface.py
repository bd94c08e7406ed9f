"""Every public name the package exports has a caller outside the tests,
and every module imports only names it reads.

A name counts as used when it appears as a whole word in the library
itself (other than on its own def/class line and in __init__.py), in the
benchmark scripts, in the README or in the acceptance tests.  A name that
only unit tests reach is surface to remove, not to export.  An imported
name counts as read when some expression of its module loads it; the
package's __init__.py, whose imports are its exports, is not scanned.
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "simplex_flows")


def _exports():
    with open(os.path.join(PACKAGE, "__init__.py")) as f:
        tree = ast.parse(f.read())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if not alias.name.startswith("_")]


def _read(path):
    with open(path) as f:
        return f.read()


def test_every_export_has_a_caller_outside_the_unit_tests():
    library = [_read(p) for p in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
               if os.path.basename(p) != "__init__.py"]
    others = [_read(p) for p in sorted(glob.glob(os.path.join(ROOT, "bench",
                                                              "*.py")))]
    others += [_read(os.path.join(ROOT, "README.md")),
               _read(os.path.join(ROOT, "tests", "test_acceptance.py"))]
    exports = _exports()
    assert len(exports) == len(set(exports)) > 0
    unused = []
    for name in exports:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b.*$", re.M)
        if not any(word.search(own.sub("", text)) for text in library) and \
                not any(word.search(text) for text in others):
            unused.append(name)
    assert unused == []


def _unused_imports(path):
    tree = ast.parse(_read(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "as" binds the alias
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{os.path.relpath(path, ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    paths = [path for folder in (PACKAGE, os.path.join(ROOT, "tests"),
                                 os.path.join(ROOT, "bench"),
                                 os.path.join(ROOT, "tools"))
             for path in sorted(glob.glob(os.path.join(folder, "*.py")))
             if path != os.path.join(PACKAGE, "__init__.py")]
    assert len(paths) > 20
    assert [entry for path in paths for entry in _unused_imports(path)] == []
