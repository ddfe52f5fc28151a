"""The check runner, the rule that only `check.py` keeps a check's books,
the rule that `Check` is the one result record, the rule that `src/` holds
no name that only tests use, the rules that no function but `qalgebra.memo`
writes a memo table and none names one, and the benchmark tracer's hold on
the names it traces."""

import ast
import importlib.util
import sys
from pathlib import Path
from typing import Iterator

import pytest

import imcrystal
from imcrystal.check import Check

SRC = Path(imcrystal.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


class TestRun:
    def test_counts_every_case_and_keeps_failures_in_order(self):
        check = Check("odd").run(range(6), lambda n: f"{n} is odd" if n % 2 else None)
        assert (check.checked, check.witnesses) == (6, ["1 is odd", "3 is odd", "5 is odd"])
        assert not check.passed

    def test_a_case_may_fail_several_ways(self):
        check = Check("many").run([0, 1, 2], lambda n: [f"{n}a", f"{n}b"][:n])
        assert (check.checked, check.witnesses) == (3, ["1a", "2a", "2b"])

    def test_later_runs_add_to_the_result(self):
        check = Check("twice").run([1], lambda n: None).run([2, 3], lambda n: f"{n}")
        assert (check.checked, check.witnesses) == (3, ["2", "3"])

    def test_no_case_passes(self):
        check = Check("empty").run([], lambda n: "unreachable")
        assert check.passed and check.checked == 0

    def test_json_form_caps_witnesses_at_20(self):
        check = Check("all").run(range(25), str)
        assert check.to_dict()["witnesses"] == [str(n) for n in range(20)]
        assert check.to_dict()["checked"] == 25


class TestFold:
    def test_sums_counts_and_joins_witnesses(self):
        parts = [Check("a").run([1, 2], str), Check("b").run([3], lambda n: None)]
        folded = Check.fold("ab", parts)
        assert (folded.name, folded.checked, folded.witnesses) == ("ab", 3, ["1", "2"])

    def test_tag_names_the_source_result(self):
        parts = (Check(name).run([name], lambda n: "bad") for name in ("a", "b"))
        assert Check.fold("ab", parts, tag=True).witnesses == ["a: bad", "b: bad"]


def _bookkeeping(tree: ast.AST) -> list[str]:
    """Each place that counts a case or collects a witness by hand."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(
                isinstance(t, ast.Attribute) and t.attr == "checked"
                for target in targets
                for t in ast.walk(target)
            ):
                found.append(f"line {node.lineno}: assigns .checked")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Check" and (len(node.args) > 1 or node.keywords):
                found.append(f"line {node.lineno}: passes a count to Check(...)")
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("append", "extend")
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "witnesses"
            ):
                found.append(f"line {node.lineno}: calls .witnesses.{func.attr}")
    return found


@pytest.mark.parametrize(
    "path", sorted(p.name for p in SRC.glob("*.py") if p.name != "check.py")
)
def test_only_check_py_keeps_the_books(path):
    tree = ast.parse((SRC / path).read_text(), path)
    assert _bookkeeping(tree) == []


def test_the_guard_sees_each_form_of_bookkeeping():
    tree = ast.parse(
        "r = Check('x', 1)\n"
        "r.checked += 1\n"
        "r.checked, n = 2, 0\n"
        "r.witnesses.append('w')\n"
        "check.Check('y', checked=1).witnesses.extend([])\n"
    )
    assert sorted(_bookkeeping(tree)) == [
        "line 1: passes a count to Check(...)",
        "line 2: assigns .checked",
        "line 3: assigns .checked",
        "line 4: calls .witnesses.append",
        "line 5: calls .witnesses.extend",
        "line 5: passes a count to Check(...)",
    ]


def _records(tree: ast.AST) -> list[str]:
    """Each class that defines `passed`: as a method, a property or a
    field."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            if "passed" in names:
                found.append(node.name)
                break
    return found


def test_one_result_record():
    # every verifier returns Checks, lists of them or plain values; only the
    # suite report, which holds Checks, has a verdict of its own
    records = {
        f"{p.stem}.{name}" for p in SRC.glob("*.py") for name in _records(ast.parse(p.read_text()))
    }
    assert sorted(records - {"check.Check", "cli.SuiteReport"}) == []


def test_the_guard_sees_each_kind_of_record():
    tree = ast.parse(
        "class A:\n"
        "    @property\n"
        "    def passed(self): return True\n"
        "class B:\n"
        "    def passed(self): return True\n"
        "class C:\n"
        "    passed: bool\n"
        "class D:\n"
        "    passed = True\n"
        "def f():\n"
        "    class E:\n"
        "        ok, passed = 1, 2\n"
        "class F:\n"
        "    def g(self): self.passed = 1\n"
        "    failed: bool\n"
    )
    assert _records(tree) == ["A", "B", "C", "D", "E"]


def _top_level(tree: ast.Module) -> Iterator[str]:
    """The names a module binds at top level: functions, classes and
    assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _uses(tree: ast.AST) -> Iterator[str]:
    """Every name a module reads: as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _unused(modules: dict[str, ast.Module], keep: set[str]) -> list[str]:
    """'module.name' for each top-level name that no module reads and that
    is not in keep; dunder names are left out."""
    used = {name for tree in modules.values() for name in _uses(tree)} | keep
    return sorted(
        f"{stem}.{name}"
        for stem, tree in modules.items()
        for name in _top_level(tree)
        if name not in used and not name.startswith("__")
    )


def test_no_library_name_is_only_for_tests():
    # a name no module of the package reads must be public or traced;
    # perfbench/tracer.py rebinds its names by string, as "function" or
    # "Class.method"
    modules = {p.stem: ast.parse(p.read_text(), p.name) for p in sorted(SRC.glob("*.py"))}
    traced = {
        part
        for node in ast.walk(ast.parse(TRACER.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
    }
    assert _unused(modules, set(imcrystal.__all__) | traced) == []


def test_the_tracer_finds_every_traced_name(monkeypatch):
    # install() looks each name up in its class or module body and rebinds
    # it wherever the package binds it; a moved or renamed method fails here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        names = [module.metric_prefix(m, attr) for m, attrs in module.TRACED.items()
                 for attr in attrs]
        assert tracer.names == names
        assert len({id(fn) for _, _, fn in tracer._bindings}) == len(names)
    finally:
        tracer.uninstall()
    assert not tracer._bindings


def test_the_guard_sees_each_kind_of_name():
    modules = {
        "a": ast.parse("def f(): pass\nclass C: pass\nX = 1\nY: int = 2\n_Z, W = 3, 4\n"
                       "__all__ = []\n"),
        "b": ast.parse("from a import f\nimport math\nprint(C.X, math.pi)\n"
                       "def g(): return _Z\n"),
    }
    assert _unused(modules, {"W"}) == ["a.Y", "b.g"]


# the dict methods that change a dict in place
_DICT_WRITES = ("__setitem__", "__delitem__", "clear", "pop", "popitem", "setdefault", "update")


def _is_new_dict(node: ast.AST) -> bool:
    """Whether a node is a dict display, a dict comprehension or a dict() call."""
    return isinstance(node, (ast.Dict, ast.DictComp)) or (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"
    )


def _module_dicts(tree: ast.Module) -> set[str]:
    """The names a module binds at top level to a new dict."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_new_dict(node.value):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _caller_owned(fn: ast.FunctionDef | ast.Lambda) -> set[str]:
    """The parameters a function rebinds to a new dict when the caller gave
    none: an assignment to the parameter that makes a dict and reads the
    parameter itself, in its value (`t = {} if t is None else t`, `t = t or
    {}`) or in the test of the `if` around it (`if t is None: t = {}`)."""
    params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    found = set()
    for node in ast.walk(fn):
        for stmt in node.body if isinstance(node, ast.If) else [node]:
            if not (
                isinstance(stmt, ast.Assign) and any(map(_is_new_dict, ast.walk(stmt.value)))
            ):
                continue
            reads = {n.id for n in ast.walk(stmt.value) if isinstance(n, ast.Name)}
            if isinstance(node, ast.If):
                reads |= {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)}
            found.update(
                t.id for t in stmt.targets if isinstance(t, ast.Name) and t.id in params & reads
            )
    return found


def _memo_writes(tree: ast.Module) -> list[str]:
    """Each place in a function body that writes into a memo by its name: a
    module-level dict, or a parameter the function rebinds to a new dict
    when the caller gave none.  A write is an item assignment or deletion,
    or a dict method that changes the dict."""
    module_dicts = _module_dicts(tree)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        dicts = module_dicts | _caller_owned(fn)
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Subscript)
                and not isinstance(node.ctx, ast.Load)
                and getattr(node.value, "id", None) in dicts
            ):
                found.add((node.lineno, f"writes {node.value.id}[...]"))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DICT_WRITES
                and getattr(node.func.value, "id", None) in dicts
            ):
                found.add((node.lineno, f"calls {node.func.value.id}.{node.func.attr}"))
    return [f"line {n}: {what}" for n, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_only_memo_writes_a_memo(path):
    # every memo goes through qalgebra.memo, which writes only the table it
    # is given; so no function writes a module-level dict by its name, nor
    # a memo its caller may own, made when the caller passed none
    tree = ast.parse((SRC / path).read_text(), path)
    assert _memo_writes(tree) == []


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_functools_memo_above_qcoeff(path):
    # qalgebra.memo is the one cache of every module: qcoeff computes its
    # named series afresh, and cli memoises its one parser through memo
    tree = ast.parse((SRC / path).read_text(), path)
    named = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    } | {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools"
    }
    assert not named & {"cache", "lru_cache"}


def test_the_guard_sees_each_memo_write():
    tree = ast.parse(
        "A = {}\n"
        "B: dict[int, int] = dict()\n"
        "C = {k: k for k in ()}\n"
        "A[0] = 1\n"
        "def f(table, key):\n"
        "    table[key] = A.get(key)\n"
        "    A[key] = B[key] = 1\n"
        "    del C[key]\n"
        "    g = lambda: B.setdefault(key, 0)\n"
        "    def h():\n"
        "        A.update({})\n"
    )
    assert _memo_writes(tree) == [
        "line 7: writes A[...]",
        "line 7: writes B[...]",
        "line 8: writes C[...]",
        "line 9: calls B.setdefault",
        "line 11: calls A.update",
    ]


def _memo_reads(tree: ast.Module) -> list[str]:
    """Each place in a function body that names a memo table of its module:
    a name passed to `memo(...)` as a decorator.  Any mention counts, so an
    item read, a membership test, a method call or a loop over the table."""
    tables = {
        dec.args[0].id
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for dec in fn.decorator_list
        if isinstance(dec, ast.Call)
        and getattr(dec.func, "id", getattr(dec.func, "attr", None)) == "memo"
        and dec.args
        and isinstance(dec.args[0], ast.Name)
    }
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            found.update(
                (node.lineno, node.id)
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and node.id in tables
            )
    return [f"line {n}: names {name}" for n, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_function_reads_a_memo_table(path):
    # a recursive body yields the keys it needs and memo sends their values,
    # so memo is the one reader of a table as well as its one writer
    tree = ast.parse((SRC / path).read_text(), path)
    assert _memo_reads(tree) == []


def test_the_guard_sees_each_memo_read():
    tree = ast.parse(
        "T = {}\n"
        "U = {}\n"
        "@memo(T)\n"
        "def f(k):\n"
        "    return T[k]\n"
        "@qalgebra.memo(U)\n"
        "def g(k):\n"
        "    if k in T:\n"
        "        return T.get(k)\n"
        "    return [v for v in T], V[k]\n"
        "h = lambda: list(U)\n"
        "print(T)\n"
        "@memo({})\n"
        "def i(k):\n"
        "    return k\n"
    )
    assert _memo_reads(tree) == [
        "line 5: names T",
        "line 8: names T",
        "line 9: names T",
        "line 10: names T",
        "line 11: names U",
    ]


def test_the_guard_sees_each_caller_owned_memo():
    # a parameter rebound to a new dict when it is None, then written;
    # reading `terms or {}` and writing a dict of one's own are not memos
    tree = ast.parse(
        "def f(lat, table=None):\n"
        "    table = {} if table is None else table\n"
        "    def image(key):\n"
        "        table[key] = 1\n"
        "def g(cache=None, other=None):\n"
        "    if cache is None:\n"
        "        cache = dict()\n"
        "    other = other or {}\n"
        "    cache.setdefault(0, 1)\n"
        "    del other[0]\n"
        "class E:\n"
        "    def __init__(self, terms=None):\n"
        "        self._terms = {m: c for m, c in (terms or {}).items() if c}\n"
        "        own = dict(terms or {})\n"
        "        own[()] = 1\n"
        "        self._terms[()] = 1\n"
        "def h(terms):\n"
        "    terms = {}\n"
        "    terms[0] = 1\n"
    )
    assert _memo_writes(tree) == [
        "line 4: writes table[...]",
        "line 9: calls cache.setdefault",
        "line 10: writes other[...]",
    ]
