"""Structure guard: guarded modules use public interfaces only.

The plan-driven workload layers (``repro.workloads``, ``repro.serve``,
``repro.cluster``) sit on top of the engine's ``retire`` primitive and
the thread's public recorders, the graph layer (``repro.graph``) on its
``load``/``store``/``load_run`` surface, and the key-value stores
(``repro.kv``) on the engine's mmap surface; the Linux and Aquila fault
protocols and their page caches reach other structures through their
public batch methods.
Reaching into another object's private state is how per-caller fast
paths crept in before.  This AST walk fails on any attribute read
``x._name`` whose base is not ``self`` or ``cls`` (dunder attributes
such as ``__name__`` are allowed).

A second walk covers all of ``repro``: no ``except ImportError``
handler, so no module keeps a fallback twin for a missing declared
dependency.
"""

import ast
import os

#: Plan-driven workload layers, the graph layer and the key-value stores
#: (every module below these packages).
PACKAGES = (
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
REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def private_reads(source: str, filename: str = "<string>"):
    """``(line, expression)`` for every private attribute of a foreign object."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append((node.lineno, ast.unparse(node)))
    return found


def test_guard_flags_foreign_private_reads():
    source = (
        "def f(self, thread):\n"
        "    a = self._own\n"
        "    b = thread.latencies._samples\n"
        "    c = type(thread).__name__\n"
    )
    assert private_reads(source) == [(3, "thread.latencies._samples")]


def _offenders(paths):
    offenders = []
    for path in paths:
        with open(path) as handle:
            source = handle.read()
        rel = os.path.relpath(path, REPO)
        offenders += [
            f"{rel}:{line}: {expr}" for line, expr in private_reads(source, path)
        ]
    return offenders


def test_workload_layers_read_no_foreign_private_attributes():
    paths = [
        os.path.join(dirpath, filename)
        for package in PACKAGES
        for dirpath, _, filenames in os.walk(os.path.join(REPO, package))
        for filename in sorted(filenames)
        if filename.endswith(".py")
    ]
    offenders = _offenders(paths)
    assert not offenders, "private reach-throughs:\n  " + "\n  ".join(offenders)


def test_fault_protocols_read_no_foreign_private_attributes():
    offenders = _offenders(os.path.join(REPO, module) for module in FAULT_PROTOCOL_MODULES)
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
    offenders = []
    for dirpath, _, filenames in os.walk(os.path.join(REPO, "src/repro")):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path) as handle:
                source = handle.read()
            rel = os.path.relpath(path, REPO)
            offenders += [f"{rel}:{line}" for line in import_fallbacks(source, path)]
    assert not offenders, "import fallbacks:\n  " + "\n  ".join(offenders)
