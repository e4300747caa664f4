"""Every public top-level function and class of ``src/nlpflow`` has a use.

A name counts as used when some module of the package refers to it,
outside its own definition: by name, or as an attribute such as
``io.load_problem``.  A re-export in ``__init__.py`` is not a use.  The
names that stay without a use are the benchmark tracer's targets
(``TARGETS`` in ``perfbench/tracer.py``) and those that the list in the
README's section on names kept gives a reason for.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nlpflow"


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _tracer_targets():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    [targets] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    return {element.elts[1].value.split(".")[-1] for element in targets.elts}


def _names_kept_in_readme():
    """The names in the list items of the README's section on names kept."""
    text = (ROOT / "README.md").read_text()
    [section] = [part for part in re.split(r"^## ", text, flags=re.M)
                 if "names kept" in part.splitlines()[0]]
    items = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.M)
    return {span.split(".")[-1] for item in items for span in re.findall(r"`([\w.]+)`", item)}


def unused_public_names(modules):
    """``module.name`` of each public top-level function or class of
    ``modules`` (module name -> AST) that no module refers to."""
    uses = {}
    for module, tree in modules.items():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                uses.setdefault(name, []).append((module, node.lineno))
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            outside = [(m, line) for m, line in uses.get(node.name, ())
                       if not (m == module and node.lineno <= line <= node.end_lineno)]
            if not outside:
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_name_has_a_use_or_a_reason():
    kept = _tracer_targets() | _names_kept_in_readme()
    unused = [name for name in unused_public_names(_modules())
              if name.split(".")[-1] not in kept]
    assert unused == []


def test_a_name_used_only_by_itself_or_a_re_export_is_unused():
    modules = {
        "a": ast.parse("def used():\n    pass\n\n"
                       "def recursive(n):\n    return recursive(n - 1)\n\n"
                       "class Lone:\n    pass\n"),
        "b": ast.parse("from .a import Lone, recursive\n\n"
                       "def caller():\n    return used()\n"),
    }
    assert unused_public_names(modules) == ["a.recursive", "a.Lone", "b.caller"]
