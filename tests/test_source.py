"""Source hygiene of the package, by a scan of its syntax trees.

Deleting code tends to leave an import or a private helper behind that
nothing reads any more; these checks find both.
"""

import ast
import pathlib

import cisolver

SRC = pathlib.Path(cisolver.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                    args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _reads(tree: ast.Module) -> set[str]:
    """Every name a module reads: loaded names and attributes, also inside
    quoted annotations, and the entries of ``__all__``."""
    quoted = [ast.parse(c.value, mode="eval") for ann in _annotations(tree)
              for c in ast.walk(ann)
              if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    out = set()
    for node in (n for t in [tree, *quoted] for n in ast.walk(t)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return out


def _imported(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(a.asname or a.name for a in node.names)
    return out


def _private_top_level(tree: ast.Module) -> set[str]:
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update(n for n in names if n.startswith("_") and not n.endswith("__"))
    return out


def test_no_module_imports_a_name_it_never_reads():
    unread = {name: sorted(_imported(tree) - _reads(tree))
              for name, tree in MODULES.items()}
    assert {name: names for name, names in unread.items() if names} == {}


def test_every_private_top_level_name_is_read_in_the_package():
    reads = set().union(*map(_reads, MODULES.values()))
    unread = {name: sorted(_private_top_level(tree) - reads)
              for name, tree in MODULES.items()}
    assert {name: names for name, names in unread.items() if names} == {}
