"""Every optional parameter of the public API is set by at least one caller.

An option that no call in ``src/``, ``tests/``, ``demos/`` or ``bench/``
turns on is a constant: it should be written as one.  The scan is
syntactic (``ast``): a call matches a public function, method or class by
its last name and sets an option by keyword or by position.  ``**kw`` sets
the keys of the dict display that ``kw`` is bound to in the same scope, or,
when it forwards the enclosing function's ``**kwargs``, the extra keywords
that function's callers pass; any other ``*args`` or ``**kw`` sets every
option.  Dataclass fields with a default count as options of the
constructor, and ``super().__init__`` calls the base classes.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aphomog"
CALLER_DIRS = ("src", "tests", "demos", "bench")


def _options(fn, skip_self):
    """(name, position or None) of each parameter with a default."""
    args = fn.args.posonlyargs + fn.args.args
    offset = 1 if skip_self else 0
    first = len(args) - len(fn.args.defaults)
    out = [(a.arg, i - offset) for i, a in enumerate(args) if i >= first]
    out += [(a.arg, None) for a, dflt in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if dflt is not None]
    return out


def _is_dataclass(cls):
    return any((isinstance(d, ast.Name) and d.id == "dataclass")
               or (isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass")
               for d in cls.decorator_list)


def public_options():
    """{(qualified name, call name): [(option, position)]} over src/aphomog."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[(f"{module}.{node.name}", node.name)] = _options(node, False)
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            if _is_dataclass(node):
                fields = [s for s in node.body
                          if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                found[(f"{module}.{node.name}", node.name)] = [
                    (s.target.id, i) for i, s in enumerate(fields) if s.value is not None]
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    key = (f"{module}.{node.name}", node.name)
                elif not item.name.startswith("_"):
                    key = (f"{module}.{node.name}.{item.name}", item.name)
                else:
                    continue
                found[key] = _options(item, not static)
    return found


def _call_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dict_keys(node):
    """Keys of a dict display, a ``dict(k=...)`` call or a choice of them, else None."""
    if isinstance(node, ast.Dict) and all(isinstance(k, ast.Constant) for k in node.keys):
        return {k.value for k in node.keys}
    if isinstance(node, ast.Call) and _call_name(node.func) == "dict" and not node.args \
            and None not in {k.arg for k in node.keywords}:
        return {k.arg for k in node.keywords}
    if isinstance(node, ast.IfExp):
        a, b = _dict_keys(node.body), _dict_keys(node.orelse)
        return None if a is None or b is None else a | b
    return None


def _bindings(scope):
    """{name: dict keys} for names bound to dicts anywhere in ``scope``."""
    bound = {}
    for sub in ast.walk(scope):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                and isinstance(sub.targets[0], ast.Name):
            bound[sub.targets[0].id] = _dict_keys(sub.value)
        if isinstance(sub, ast.For) and isinstance(sub.target, ast.Tuple) \
                and isinstance(sub.iter, ast.Tuple):
            # for name, kwargs in (("a", {...}), ("b", {...})): the union of the dicts
            for pos, tgt in enumerate(sub.target.elts):
                keys = [_dict_keys(row.elts[pos]) for row in sub.iter.elts
                        if isinstance(row, ast.Tuple) and len(row.elts) > pos]
                if isinstance(tgt, ast.Name) and keys and None not in keys:
                    bound[tgt.id] = set().union(*keys)
    return bound


class _Calls(ast.NodeVisitor):
    """Collects calls as (name, positional count, keywords, forwarding function).

    ``**name`` resolves to the keys of a dict that ``name`` is bound to in
    the enclosing function; ``**kwargs`` of the enclosing function's own
    signature is left to :func:`calls`, which resolves it from that
    function's callers.  Anything else sets every option.
    """

    def __init__(self):
        self.out = []
        self.classes = []
        self.functions = []

    def visit_ClassDef(self, node):
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Module(self, node):
        self.functions.append((None, _bindings(node), None))
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        varkw = node.args.kwarg.arg if node.args.kwarg else None
        self.functions.append((node.name, _bindings(node), varkw))
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        self.generic_visit(node)
        func, args = node.func, node.args
        if _call_name(func) == "partial" and args:
            func, args = args[0], args[1:]
        names = [_call_name(func)]
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and _call_name(func.value.func) == "super" and self.classes):
            names = [_call_name(b) for b in self.classes[-1].bases]
        n_pos = None if any(isinstance(a, ast.Starred) for a in args) else len(args)
        kws, forwards = set(), None
        for k in node.keywords:
            if k.arg is not None:
                kws.add(k.arg)
                continue
            fname, bound, varkw = self.functions[-1]
            if isinstance(k.value, ast.Name) and k.value.id == varkw:
                forwards = fname
            elif isinstance(k.value, ast.Name) and bound.get(k.value.id) is not None:
                kws |= bound[k.value.id]
            else:
                kws = None
                break
        for name in names:
            if name is not None:
                self.out.append((name, n_pos, kws, forwards))


def calls():
    """(call name, positional count or None for *args, keywords or None for **kw).

    A call that forwards its function's ``**kwargs`` sets the keywords that
    the callers of that function pass beyond its named parameters.
    """
    raw = []
    signatures = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            visitor = _Calls()
            visitor.visit(tree)
            raw += visitor.out
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.args.kwarg:
                    named = {a.arg for a in node.args.posonlyargs + node.args.args
                             + node.args.kwonlyargs}
                    signatures.setdefault(node.name, set()).update(named)
    extra = {name: set() for name in signatures}   # None: callers pass unknown keywords
    changed = True
    while changed:
        changed = False
        for name, _, kws, forwards in raw:
            if extra.get(name) is None:
                continue
            add = None if kws is None else kws - signatures[name]
            if forwards is not None and extra.get(forwards) is None:
                add = None
            elif forwards is not None and add is not None:
                add |= extra[forwards]
            if add is None or not add <= extra[name]:
                extra[name] = None if add is None else extra[name] | add
                changed = True
    out = []
    for name, n_pos, kws, forwards in raw:
        if forwards is not None:
            more = extra.get(forwards)
            kws = None if kws is None or more is None else kws | more
        out.append((name, n_pos, kws))
    return out


def unset_options():
    by_name = {}
    for name, n_pos, kws in calls():
        by_name.setdefault(name, []).append((n_pos, kws))
    unset = []
    for (qual, name), options in sorted(public_options().items()):
        for opt, pos in options:
            if not any(n_pos is None or kws is None or opt in kws
                       or (pos is not None and pos < n_pos)
                       for n_pos, kws in by_name.get(name, [])):
                unset.append(f"{qual}({opt})")
    return unset


def test_every_option_is_set_by_some_call():
    unset = unset_options()
    assert not unset, f"{len(unset)} options no caller sets:\n" + "\n".join(unset)


def test_scan_sees_options_and_their_callers():
    options = public_options()
    assert ("max_iters", 3) in options[("operators.solve", "solve")]
    assert ("cells", 3) in options[("experiments.DirichletProblem", "DirichletProblem")]
    assert ("run_manifest", 2, {"threads"}) in calls()          # bench/worker.py
