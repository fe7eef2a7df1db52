"""Structure guard: every private name stays inside the module that owns it.

One AST walk covers all of ``repro``.  A private name (``_x``; dunders
such as ``__name__`` are public) may be used only in the module that
defines it, where a module defines a name with a ``def`` or ``class``,
a module- or class-level assignment, or a ``self._x``/``cls._x`` store.
So ``other._x`` and ``from m import _x`` fail unless this module defines
``_x`` too, while ``self._x`` and ``cls._x`` always pass (a subclass may
use what its base defines).  A module that reaches into another's
private state re-implements its policy or format, and must then change
with it: each decision stays known by the one module that owns it.

The plan-driven workload layers (``repro.workloads``, ``repro.serve``,
``repro.cluster``), the graph layer, the key-value stores and the Linux
and Aquila fault protocols with their page caches are held to a stricter
rule on top: no private attribute of any object but ``self``/``cls``,
even one their own module defines.  They reach other structures only
through public methods; per-caller fast paths crept in that way before.

A second walk covers all of ``repro`` too: no ``except ImportError``
handler, so no module keeps a fallback twin for a missing declared
dependency.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PACKAGE = os.path.join(REPO, "src", "repro")

#: Plan-driven workload layers, the graph layer and the key-value stores
#: (every module below these packages).
LAYER_PACKAGES = (
    "src/repro/workloads",
    "src/repro/serve",
    "src/repro/cluster",
    "src/repro/graph",
    "src/repro/kv",
)

#: The Linux and Aquila fault protocols and their page caches.
FAULT_PROTOCOL_MODULES = (
    "src/repro/mmio/linux_mmap.py",
    "src/repro/cache/kernel_cache.py",
    "src/repro/mmio/aquila.py",
    "src/repro/cache/aquila_cache.py",
)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def defined_private_names(tree) -> set:
    """Private names ``tree`` defines (see the module docstring)."""
    names = set()
    bodies = [tree.body]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                bodies.append(node.body)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and _is_self(node.value)
        ):
            names.add(node.attr)
    for body in bodies:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if _private(name)}


def foreign_private_uses(source: str, filename: str = "<string>"):
    """``(line, expression)`` for every private name this module does not own."""
    tree = ast.parse(source, filename=filename)
    owned = defined_private_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if _private(node.attr) and node.attr not in owned and not _is_self(node.value):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom):
            found += [
                (node.lineno, f"from {node.module} import {alias.name}")
                for alias in node.names
                if _private(alias.name)
            ]
    return sorted(found)


def test_guard_passes_private_names_used_in_their_own_module():
    source = (
        "_LIMIT = 3\n"
        "def _helper():\n"
        "    return _LIMIT\n"
        "class Ledger:\n"
        "    _shared = 0\n"
        "    def __init__(self):\n"
        "        self._cycles = {}\n"
        "    def merge(self, other):\n"
        "        other._cycles.update(self._cycles)\n"
        "        return type(other)._shared, self._inherited(), type(self).__name__\n"
    )
    assert foreign_private_uses(source) == []


def test_guard_flags_foreign_private_reads():
    source = (
        "from repro.hw.tlb import TLB, _hidden\n"
        "def step(self, clock, tlb):\n"
        "    a = self._own\n"
        "    b = clock.breakdown._cycles\n"
        "    clock._obs_span = None\n"
        "    tlb._entries[1] = None\n"
    )
    assert foreign_private_uses(source) == [
        (1, "from repro.hw.tlb import _hidden"),
        (4, "clock.breakdown._cycles"),
        (5, "clock._obs_span"),
        (6, "tlb._entries"),
    ]


def _package_sources():
    """``(repo-relative path, source)`` of every module of ``repro``."""
    for dirpath, _, filenames in sorted(os.walk(PACKAGE)):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                with open(path) as handle:
                    yield os.path.relpath(path, REPO), handle.read()


def test_package_uses_no_foreign_private_names():
    offenders = [
        f"{rel}:{line}: {expr}"
        for rel, source in _package_sources()
        for line, expr in foreign_private_uses(source, rel)
    ]
    assert not offenders, "foreign private names:\n  " + "\n  ".join(offenders)


def non_self_private_reads(source: str, filename: str = "<string>"):
    """``(line, expression)`` for every private attribute of an object but ``self``/``cls``."""
    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(ast.parse(source, filename=filename))
        if isinstance(node, ast.Attribute) and _private(node.attr) and not _is_self(node.value)
    ]


def test_strict_guard_flags_same_module_private_reads():
    source = (
        "class Ledger:\n"
        "    def merge(self, other):\n"
        "        other._cycles.update(self._cycles)\n"
        "        return type(self).__name__\n"
    )
    assert non_self_private_reads(source) == [(3, "other._cycles")]


def _non_self_offenders(selected):
    return [
        f"{rel}:{line}: {expr}"
        for rel, source in _package_sources()
        if selected(rel)
        for line, expr in non_self_private_reads(source, rel)
    ]


def test_workload_layers_read_no_foreign_private_attributes():
    offenders = _non_self_offenders(
        lambda rel: any(rel.startswith(package + "/") for package in LAYER_PACKAGES)
    )
    assert not offenders, "private reach-throughs:\n  " + "\n  ".join(offenders)


def test_fault_protocols_read_no_foreign_private_attributes():
    offenders = _non_self_offenders(lambda rel: rel in FAULT_PROTOCOL_MODULES)
    assert not offenders, "private reach-throughs:\n  " + "\n  ".join(offenders)


def import_fallbacks(source: str, filename: str = "<string>"):
    """Lines of every ``except ImportError`` (or ``ModuleNotFoundError``) handler.

    The declared dependencies (``pyproject.toml``) are required: a
    fallback for a missing one is a second code path no install runs.
    """
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None) for t in types}
        if names & {"ImportError", "ModuleNotFoundError"}:
            found.append(node.lineno)
    return found


def test_guard_flags_import_fallbacks():
    source = (
        "try:\n"
        "    import numpy as np\n"
        "except ImportError:\n"
        "    np = None\n"
        "try:\n"
        "    pass\n"
        "except (ValueError, ModuleNotFoundError):\n"
        "    pass\n"
        "try:\n"
        "    pass\n"
        "except KeyError:\n"
        "    pass\n"
    )
    assert import_fallbacks(source) == [3, 7]


def test_package_has_no_import_fallbacks():
    offenders = [
        f"{rel}:{line}"
        for rel, source in _package_sources()
        for line in import_fallbacks(source, rel)
    ]
    assert not offenders, "import fallbacks:\n  " + "\n  ".join(offenders)
