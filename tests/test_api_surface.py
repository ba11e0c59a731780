"""Every optional parameter of the public API is set by at least one program.

An option that no call in ``src/``, ``demos/`` or ``bench/`` outside the
test directories turns on is a constant: it should be written as one,
unless ``SET_BY_TESTS_ONLY`` names it with the reason tests need it.  The scan is
syntactic (``ast``): a call matches a public function, method or class by
its last name and sets an option by keyword or by position.  ``**kw`` sets
the keys of the dict display that ``kw`` is bound to in the same scope, or,
when it forwards the enclosing function's ``**kwargs``, the extra keywords
that function's callers pass; any other ``*args`` or ``**kw`` sets every
option.  Dataclass fields with a default count as options of the
constructor, and ``super().__init__`` calls the base classes.

Likewise every name that ``aphomog/__init__.py`` exports is read by some
program in ``src/``, ``demos/`` or ``bench/`` outside the test directories
(as a name, an attribute or a ``from ... import``), unless
``EXPORTED_FOR_READERS`` names it with the reason it stays public, and every
public method, property and dataclass field of a public class of the package
is read as an attribute by such a program, unless ``MEMBERS_FOR_READERS``
names it with its reason.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aphomog"
CALLER_DIRS = ("src", "tests", "demos", "bench")
TEST_DIRS = ("tests", "bench/tests")
INIT = PACKAGE / "__init__.py"

# options that only tests set, each public for the reason given
SET_BY_TESTS_ONLY = {
    "operators.solve(max_iters)": "it reaches the exhausted-budget path",
    "correctors.flux_tensor(ahat)": "the paper's flux against a reference tensor",
    "experiments.rate_experiment(rho_report)": "the paper's Theta-bound comparison",
    "correctors.solve_corrector(threads)": "bench/tests passes it until ROADMAP item 2",
    "fields.certify_ellipticity(sample_count)": "bench/tests passes it until ROADMAP item 2",
}

# exported names that no program reads, each public for the reason given
EXPORTED_FOR_READERS = {
    "translation_response": "a paper object: the corrector response to a translation",
    "load_grid_function": "it reads the .bin companions of a corrector run",
}

# public class members that no program reads, each public for the reason given
MEMBERS_FOR_READERS = {
    "fields.CoefficientField.adjoint": "the paper's A*; tests pin that assemble of A* "
                                       "is the transpose",
    "grids.BoxGrid.face_points": "the face centres that the tests' oracles sample",
    "metrics.DecayReport.from_dict": "the reader of rho and theta results (README)",
    "operators.SolveInfo.method": "it names the Krylov method; ROADMAP item 2's spans read it",
}


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


def _is_test(path):
    rel = path.relative_to(ROOT).as_posix()
    return any(rel.startswith(top + "/") for top in TEST_DIRS)


def calls(programs_only=False):
    """(call name, positional count or None for *args, keywords or None for **kw).

    A call that forwards its function's ``**kwargs`` sets the keywords that
    the callers of that function pass beyond its named parameters.
    ``programs_only`` skips the files under ``TEST_DIRS``.
    """
    raw = []
    signatures = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if programs_only and _is_test(path):
                continue
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


def unset_options(programs_only=False):
    by_name = {}
    for name, n_pos, kws in calls(programs_only):
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


def test_every_option_a_program_leaves_unset_is_listed_with_its_reason():
    unset = set(unset_options(programs_only=True))
    unlisted = sorted(unset - set(SET_BY_TESTS_ONLY))
    assert not unlisted, (f"{len(unlisted)} options only tests set: make each a constant "
                          "or list it in SET_BY_TESTS_ONLY with its reason:\n"
                          + "\n".join(unlisted))
    stale = sorted(set(SET_BY_TESTS_ONLY) - unset)
    assert not stale, "listed options that are gone or that a program sets:\n" + "\n".join(stale)


def test_scan_sees_options_and_their_callers():
    options = public_options()
    assert ("max_iters", 3) in options[("operators.solve", "solve")]
    assert ("solve_info", 2) in options[("grids.GridFunction", "GridFunction")]
    assert ("run_manifest", 2, {"threads"}) in calls(programs_only=True)   # bench/worker.py
    assert any(name == "solve" and kws and "max_iters" in kws for name, _, kws in calls())
    assert not any(name == "solve" and kws and "max_iters" in kws
                   for name, _, kws in calls(programs_only=True))


def test_option_count_does_not_grow():
    # a change that adds or removes a public option changes this number in
    # the same diff; 50: the options only tests set went (CorrectorSet's
    # iterations and face_rows, translation_response's h and tol,
    # modulus_of_continuity's rng_seed, holder_seminorm's pair_budget)
    total = sum(len(options) for options in public_options().values())
    assert total == 50


def exported_names():
    """Every name that ``aphomog/__init__.py`` imports."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names}


def _program_nodes():
    """Every AST node of the programs outside ``TEST_DIRS`` and the package's ``__init__.py``."""
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if not (_is_test(path) or path == INIT):
                yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def program_references():
    """Every name, attribute and ``from ... import`` name that the programs read."""
    seen = set()
    for node in _program_nodes():
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            seen.update(a.name for a in node.names)
    return seen


def test_every_exported_name_a_program_leaves_unread_is_listed_with_its_reason():
    unread = exported_names() - program_references()
    unlisted = sorted(unread - set(EXPORTED_FOR_READERS))
    assert not unlisted, (f"{len(unlisted)} exported names no program reads: drop each "
                          "from aphomog/__init__.py or list it in EXPORTED_FOR_READERS "
                          "with its reason:\n" + "\n".join(unlisted))
    stale = sorted(set(EXPORTED_FOR_READERS) - unread)
    assert not stale, "listed names that are gone or that a program reads:\n" + "\n".join(stale)


def public_members():
    """{"module.Class.member"} over the public methods, properties and dataclass
    fields of the public classes of src/aphomog."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            names = [item.name for item in cls.body if isinstance(item, ast.FunctionDef)]
            if _is_dataclass(cls):
                names += [item.target.id for item in cls.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            found.update(f"{path.stem}.{cls.name}.{n}" for n in names if not n.startswith("_"))
    return found


def test_every_class_member_a_program_leaves_unread_is_listed_with_its_reason():
    reads = {node.attr for node in _program_nodes()
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    members = public_members()
    # a method, a property, a static method and a dataclass field
    assert {"grids.GridFunction.interpolate", "grids.Box.sides", "grids.Box.cube",
            "operators.SolveInfo.iterations"} <= members
    unread = {m for m in members if m.rsplit(".", 1)[1] not in reads}
    unlisted = sorted(unread - set(MEMBERS_FOR_READERS))
    assert not unlisted, (f"{len(unlisted)} public class members no program reads: make "
                          "each private, drop it or list it in MEMBERS_FOR_READERS with its "
                          "reason:\n" + "\n".join(unlisted))
    stale = sorted(set(MEMBERS_FOR_READERS) - unread)
    assert not stale, "listed members that are gone or that a program reads:\n" + "\n".join(stale)
