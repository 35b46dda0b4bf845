"""The package's public API: what `from nakayama import *` exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import nakayama


def test_all_lists_each_imported_public_name_once():
    tree = ast.parse(Path(nakayama.__file__).read_text())
    imported = {a.asname or a.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    names = nakayama.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(nakayama, name) for name in names)
    assert set(names) == {name for name in imported if not name.startswith("_")}


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports only to re-export; every other module of
    # src/nakayama and of tests must reference each name it imports
    files = [p for p in sorted(Path(nakayama.__file__).parent.glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted(Path(__file__).parent.glob("*.py"))
    unused = []
    for path in files:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += ["%s:%d %s" % (path.name, node.lineno, name)
                       for name in names if name not in used]
    assert unused == []


def test_every_linalg_function_has_a_caller_in_the_package():
    # __init__ does not re-export linalg, so a public function there that
    # only tests call is dead code
    pkg = Path(nakayama.__file__).parent
    tree = ast.parse((pkg / "linalg.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    used = set()
    for path in pkg.glob("*.py"):
        if path.name != "linalg.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert defined and sorted(defined - used) == []


def _package_imports(name):
    """The package modules that src/nakayama/<name> imports from ("" for the
    package itself), relative or absolute."""
    tree = ast.parse((Path(nakayama.__file__).parent / name).read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "nakayama." * bool(node.level) + (node.module or "")
            paths = [base.rstrip(".") + "." + a.name for a in node.names]
        else:
            continue
        out |= {(p + ".").split(".")[1] for p in paths
                if p.split(".")[0] == "nakayama"}
    return out


def test_oracle_shares_only_core_and_linalg_with_the_package():
    # the oracle is an independent cross-check of homology's counts, and
    # linalg sits under every layer
    assert _package_imports("oracle.py") == {"core", "linalg"}
    assert _package_imports("linalg.py") == set()


def _kind_readers(name):
    """The functions of src/nakayama/<name> that read an attribute `.kind`,
    by dotted name inside the module ("" for module level)."""
    tree = ast.parse((Path(nakayama.__file__).parent / name).read_text())
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "kind"
                    and isinstance(child.ctx, ast.Load)):
                readers.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return readers


def test_formulas_do_not_read_the_kind():
    # a linear algebra is the cyclic quiver with c_1 = 1, so every formula
    # is kind-free; the kind decides only which sequences and modules exist,
    # what an algebra is equal to and prints as, which kind the opposite
    # has, and classify's table of rotation classes and its report field
    for name in ("homology", "oracle", "endo", "linalg", "checks", "suites"):
        assert _kind_readers(name + ".py") == set(), name
    assert _kind_readers("core.py") == {
        "AdmissibleSequence.__eq__", "AdmissibleSequence.__hash__",
        "AdmissibleSequence.__repr__", "AdmissibleSequence.normalize",
        "format_algebra", "valid_uniserial", "make_module", "opposite"}
    assert _kind_readers("tilting.py") == {
        "ClassificationReport.json_dict", "classify", "_classify"}


def test_import_loads_neither_fractions_nor_decimal():
    # a fresh interpreter, so the modules already loaded here do not count;
    # comparing before and after keeps whatever site loads out of it
    src = str(Path(nakayama.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the CLI loads only when it is used, and the property suites only when
    # a suite runs, not when the CLI starts
    code = ("import sys; before = set(sys.modules); import nakayama; "
            "from nakayama import checks, core, endo, homology, oracle, sweeps, "
            "tilting; print(*sorted(set(sys.modules) - before)); "
            "import nakayama.cli; print(*sorted(set(sys.modules) - before)); "
            "nakayama.run_suite('it', samples=1); "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    added, after_cli, after_suite = [set(line.split()) for line in out.splitlines()]
    assert "nakayama" in added
    assert not added & {"fractions", "decimal", "nakayama.suites", "nakayama.cli"}
    assert "nakayama.cli" in after_cli and "nakayama.suites" not in after_cli
    assert "nakayama.suites" in after_suite
