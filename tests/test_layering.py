"""Layering guard: hot-path code goes through a module's public surface.

An ``ast`` walk over ``src/repro`` that fails on any attribute access
reaching one of the private names below on an object other than ``self``
from outside the module that owns the name (``queue._heap``, the cuckoo
match and profile caches, the fleet cause maps): a fast
path that needs them belongs inside the owning module.  Reaches that
remain are listed in ``ALLOWED`` with the reason, so they are visible
debt rather than silent.  The same walk refuses ``.__dict__`` on anything
but ``self``: writing through another object's instance dict un-shares
its key-sharing dict (400 B per connection per replay, when a hash cache
did it), and the per-connection records are slotted.  And it refuses the
second, uninstrumented component mode: no ``_m_*`` instrument attribute
is compared with ``None`` and nothing is annotated ``Optional[Scope]`` —
a component always counts into a scope, its registry counter is the one
store of each count (docs/observability.md, "One store per count").
Beside it, one store per distribution: nothing takes or passes a
``quantiles`` argument, ``Histogram`` is the only class under ``obs/`` that
can ``observe``, and every slot a ``Histogram`` method writes is folded
from the other side's same slot by ``merge_from`` — so a streaming
estimator, whose state can only merge approximately, cannot grow back
beside the buckets ("One distribution store", same document).  And one
record per update: no ``tracer`` argument, parameter or attribute, no
import of the deleted ``repro.obs.tracing``, and ``UpdateTimings`` is
built only by the coordinator ("Update records", same document).  And
one spelling per event: every ``.record(`` call names a kind declared in
``repro.obs.events`` and passes exactly that kind's fields, positionally
— no string category, no keyword fields, no ``**attrs`` helper, no
``EventKind`` built anywhere else ("Flight recorder", same document); a
``fleet.*`` event is emitted through ``FleetSilkRoad._emit``, whose call
sites are checked the same way, so none can bypass the replica journal,
and every declared ``fleet.*`` kind is emitted somewhere.
And one fault model: ``faults/`` holds one fault-kind ``Enum``, one plan
``generate`` and one class that ``attach``-es a plan, and every kind has
its one declared ``fault.<value>`` event (docs/robustness.md, "The fault
model").  And one PCC judgment: every cause a broken connection can
carry is spelled once, in ``obs/causes.py`` (docs/robustness.md, "One
cause table").  And one replay-driver seam: the scalar ``FlowSimulator``
is built only in ``PccWorkload.replay``, the one function besides
``BatchedFlowSimulator.__init__`` that takes ``batched`` / ``batch_size``,
and ``DriverOptions`` is named nowhere (docs/architecture.md, "One
replay loop and the intra-batch ordering rule").  And one declaration per
hash seed: each seed the object model hashes with is written once under
``src/repro``, so the P4 twin imports it rather than copying it.  And
one SRAM cost model: outside ``asicsim/`` only ``core/sram_cost.py``
packs entries into words (``bytes_for_entries`` / ``words_for_entries``),
so each table's entry layout is declared once, and the deleted RMT
placement model, Table 2 module and SRAM budget objects stay deleted.
And a value is settable only if some program sets it: every field of
``SilkRoadConfig``, ``ServeConfig`` and ``ObsOptions`` is spelled as a call
keyword or a string literal somewhere a program lives (``src/repro``
outside the field's own module, ``perf/``, ``examples/``); what only
tests vary is a module constant they patch.  And, by the same reach,
every function, class and method under ``src/repro`` has a program
reader: a fixed point over names read from the programs finds nothing
only tests run, unless ``TEST_ONLY`` admits it as a test oracle, a test
observation surface or the §5.1 P4 artifact.
And one name per count: no ``def report`` outside ``deploy/fleet.py``
(whose replicated fleet counters cannot yet be registry counters), no
count stored as a plain switch attribute, no counts dict on a simulation
report or a sharded run, and docs/observability.md's metric catalogue
names exactly what a fresh switch registers.  And one benchmark harness:
``perf/`` is the benchmark, so no ``benchmarks/`` directory, no
``pytest_benchmark`` import or ``benchmark`` test parameter and no
``pytest-benchmark`` test dependency grows back beside it, and every test
DESIGN.md names as a table's or figure's regeneration target exists.

A second walk guards import *direction*: the packages below the
experiment harness (``core``, ``asicsim``, ``netsim``, ``obs``,
``deploy``) never import ``repro.experiments``, the single-switch layers
(``core``, ``asicsim``, ``netsim``, ``obs``) import nothing from the
packages built on them (``deploy``, ``faults``, ``serve``,
``experiments``), and nothing imports the deleted
``repro.netsim.telemetry`` or the deleted second multi-switch deployment.
And at the top of the stack ``repro/cli.py`` is a shell over ``repro.api``:
it imports nothing from ``repro.faults``, ``repro.deploy`` or
``repro.experiments.parallel`` directly.  And no module outside a package
``__init__`` makes a module-level import that nothing uses: the module
reads the name, another module imports it from there, or ``__all__``
lists it.
"""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from repro.core.config import SilkRoadConfig
from repro.options import ObsOptions
from repro.serve.session import ServeConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: private attribute -> path prefix (relative to src/repro) that owns it.
OWNERS = {
    "_heap": "netsim/",
    "_buckets": "asicsim/cuckoo.py",
    "_row_of": "asicsim/cuckoo.py",
    "_cell_mask": "asicsim/cuckoo.py",
    "_profile_cache": "asicsim/cuckoo.py",
    "_match": "asicsim/cuckoo.py",
    "_below": "asicsim/cuckoo.py",
    "_index_units": "asicsim/cuckoo.py",
    "_digest_units": "asicsim/cuckoo.py",
    "_move_cause": "deploy/fleet.py",
    "_drop_cause": "deploy/fleet.py",
    "_filter": "core/transit_table.py",
}

#: (file, attribute) reaches that are known and tolerated.
ALLOWED = {
    # The partition worker ships the fleet's attribution maps back to the
    # parent for the merged audit; FleetSilkRoad exposes no accessor.
    ("experiments/parallel.py", "_move_cause"),
    ("experiments/parallel.py", "_drop_cause"),
}


def _reaches():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in OWNERS
                and not rel.startswith(OWNERS[node.attr])
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                yield rel, node.attr, node.lineno


def test_no_private_reach_across_modules():
    offenders = [
        f"{rel}:{line} reaches .{attr} (owned by {OWNERS[attr]})"
        for rel, attr, line in _reaches()
        if (rel, attr) not in ALLOWED
    ]
    assert not offenders, "\n".join(offenders)


def test_allow_list_has_no_stale_entries():
    seen = {(rel, attr) for rel, attr, _line in _reaches()}
    assert ALLOWED <= seen, f"stale ALLOWED entries: {sorted(ALLOWED - seen)}"


def test_no_reach_into_another_objects_instance_dict():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr == "__dict__"
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert not offenders, "\n".join(offenders)


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _names_scope(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "Scope"


def _optional_scope(node) -> bool:
    """``Optional[Scope]``, or its ``Scope | None`` spelling."""
    if isinstance(node, ast.Subscript):
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "Optional"
            and _names_scope(node.slice)
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = (node.left, node.right)
        return any(map(_names_scope, sides)) and any(map(_is_none, sides))
    return False


def test_no_uninstrumented_component_mode():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_is_none, operands)) and any(
                    isinstance(o, ast.Attribute) and o.attr.startswith("_m_")
                    for o in operands
                ):
                    offenders.append(f"{rel}:{node.lineno} guards an instrument on None")
            elif _optional_scope(node):
                offenders.append(f"{rel}:{node.lineno} makes a Scope optional")
    assert not offenders, "\n".join(offenders)


def _self_slots_written(function) -> dict:
    """``{slot: [value expression, ...]}`` for every ``self.<slot>`` (or
    ``self.<slot>[...]``) a method assigns or augments."""
    written = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                written.setdefault(target.attr, []).append(node.value)
    return written


def test_one_distribution_store():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.keyword) and node.arg == "quantiles":
                offenders.append(f"{rel}:{node.value.lineno} passes quantiles=")
            elif isinstance(node, ast.arg) and node.arg == "quantiles":
                offenders.append(f"{rel}:{node.lineno} takes a quantiles parameter")
            elif (
                isinstance(node, ast.ClassDef)
                and rel.startswith("obs/")
                and node.name != "Histogram"
                and any(
                    isinstance(item, ast.FunctionDef) and item.name == "observe"
                    for item in node.body
                )
            ):
                offenders.append(f"{rel}:{node.lineno} {node.name} is a second estimator")
    assert not offenders, "\n".join(offenders)

    tree = ast.parse((SRC / "obs" / "metrics.py").read_text())
    (histogram,) = (
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "Histogram"
    )
    methods = {
        item.name: _self_slots_written(item)
        for item in histogram.body
        if isinstance(item, ast.FunctionDef)
    }
    mutable = set().union(
        *(written for name, written in methods.items() if name != "__init__")
    )
    assert {"bucket_counts", "count", "min", "max"} <= mutable
    assert set(methods["observe"]) == mutable
    folded = methods["merge_from"]
    assert set(folded) == mutable, f"merge_from does not fold {mutable - set(folded)}"
    for slot, values in folded.items():
        reads = {
            node.attr
            for value in values
            for node in ast.walk(value)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "other"
        }
        assert reads == {slot}, f"merge_from builds {slot} from other.{sorted(reads)}"


#: Packages that sit below the experiment harness and may not import it.
LOWER_LAYERS = ("core/", "asicsim/", "netsim/", "obs/", "deploy/")


def _imports():
    """``(file, absolute module imported, line)`` for every import under
    ``src/repro`` (function-level ones included)."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        package = ("repro/" + rel).split("/")[:-1]
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield rel, alias.name, node.lineno
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                yield rel, module, node.lineno
                for alias in node.names:  # ``from . import telemetry``
                    yield rel, f"{module}.{alias.name}", node.lineno


def test_lower_layers_do_not_import_the_experiment_harness():
    offenders = [
        f"{rel}:{line} imports {module}"
        for rel, module, line in _imports()
        if rel.startswith(LOWER_LAYERS)
        and (module + ".").startswith("repro.experiments.")
    ]
    assert not offenders, "\n".join(offenders)


#: The single-switch model and its substrate ...
SWITCH_LAYERS = ("core/", "asicsim/", "netsim/", "obs/")
#: ... and the packages built on top of it, which it may not import.
ABOVE_THE_SWITCH = ("deploy", "faults", "serve", "experiments")


def test_switch_layers_import_nothing_built_on_them():
    above = tuple(f"repro.{package}." for package in ABOVE_THE_SWITCH)
    offenders = [
        f"{rel}:{line} imports {module}"
        for rel, module, line in _imports()
        if rel.startswith(SWITCH_LAYERS) and (module + ".").startswith(above)
    ]
    assert not offenders, "\n".join(offenders)


#: The CLI reaches every runner through the ``repro.api`` facade.
BEHIND_THE_FACADE = ("repro.faults.", "repro.deploy.", "repro.experiments.parallel.")


def test_cli_reaches_runners_through_the_api_facade():
    offenders = [
        f"{rel}:{line} imports {module}"
        for rel, module, line in _imports()
        if rel == "cli.py" and (module + ".").startswith(BEHIND_THE_FACADE)
    ]
    assert not offenders, "\n".join(offenders)
    assert any(
        rel == "cli.py" and module == "repro.api" for rel, module, _line in _imports()
    )


#: Trees whose ``from M import name`` statements keep a name of ``M`` used.
IMPORTING_DIRS = ("src", "perf", "examples", "tests")


def _module_of(path: Path) -> tuple:
    """``(dotted module, is a package)`` of a file under the repo root
    (``src/`` is the import root of ``repro``)."""
    parts = list(path.relative_to(ROOT).with_suffix("").parts)
    if parts[0] == "src":
        parts = parts[1:]
    package = parts[-1] == "__init__"
    return ".".join(parts[:-1] if package else parts), package


def _imported_from() -> set:
    """``(absolute module, name)`` of every ``from M import name`` in the
    repo, relative imports resolved."""
    found = set()
    for path in (p for d in IMPORTING_DIRS for p in sorted((ROOT / d).rglob("*.py"))):
        module, package = _module_of(path)
        here = module.split(".") if package else module.split(".")[:-1]
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                base = here[: len(here) - node.level + 1] if node.level else []
                source = ".".join(base + ([node.module] if node.module else []))
                found.update((source, alias.name) for alias in node.names)
    return found


def _module_level_imports(tree):
    """``(names, line)`` of each import a module makes at its top level
    (inside a top-level ``if`` / ``try`` too), ``__future__`` aside.
    ``names`` are what a read of the import may spell: the bound name, and
    for ``import a.b`` also ``b``, the submodule it loads for ``x.b``."""
    stack = list(tree.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.If, ast.Try)):
            stack += stmt.body + stmt.orelse + getattr(stmt, "finalbody", [])
            stack += [s for handler in getattr(stmt, "handlers", []) for s in handler.body]
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    yield {alias.asname}, stmt.lineno
                else:
                    dotted = alias.name.split(".")
                    yield {dotted[0], *dotted[1:][-1:]}, stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                yield {alias.asname or alias.name}, stmt.lineno


def _names_read(tree) -> set:
    """Every ``Name`` and attribute in ``tree``, those inside string
    annotations included, plus the strings ``__all__`` lists."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    quoted = [
        ast.parse(a.value, mode="eval")
        for a in annotations
        if isinstance(a, ast.Constant) and type(a.value) is str
    ]
    names = set()
    for node in (n for top in (tree, *quoted) for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    for stmt in tree.body:
        if _is_all(stmt):
            names.update(
                c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)
            )
    return names


def test_no_unused_module_imports():
    # A module-level import is used when the module reads the name, another
    # module imports the name from it (a re-export, as cli.py takes
    # chaos_config from repro.api), or its __all__ lists it.  A package
    # __init__ only re-exports, so it is exempt.
    imported_from = _imported_from()
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        module, _package = _module_of(path)
        read = _names_read(tree)
        unused += [
            f"{path.relative_to(SRC).as_posix()}:{line} imports {min(names)}"
            for names, line in _module_level_imports(tree)
            if not names & read and not {(module, name) for name in names} & imported_from
        ]
    assert not unused, "imports nothing reads:\n" + "\n".join(sorted(unused))


def test_nothing_imports_the_deleted_second_deployment():
    # FleetSilkRoad is the one multi-switch LoadBalancer; the module that
    # held the oracle-triggered duplicate must not come back.  (The name is
    # spelled apart so a grep for the old dotted path over the tree is empty.)
    deleted = "failover"
    offenders = [
        f"{rel}:{line}"
        for rel, module, line in _imports()
        if (module + ".").startswith(f"repro.deploy.{deleted}.")
    ]
    assert not offenders, "\n".join(offenders)
    assert not (SRC / "deploy" / f"{deleted}.py").exists()


def test_nothing_imports_the_deleted_netsim_sampler():
    offenders = [
        f"{rel}:{line}"
        for rel, module, line in _imports()
        if (module + ".").startswith("repro.netsim.telemetry.")
    ]
    assert not offenders, "\n".join(offenders)
    assert not (SRC / "netsim" / "telemetry.py").exists()


def test_one_record_per_update():
    # ``UpdateTimings`` is the one record of a 3-step update: the generic
    # span facility (``obs/tracing.py``) must not come back beside it, no
    # call or signature carries a ``tracer``, and only the coordinator
    # builds the record.
    offenders = [
        f"{rel}:{line} imports {module}"
        for rel, module, line in _imports()
        if (module + ".").startswith("repro.obs.tracing.")
    ]
    assert not (SRC / "obs" / "tracing.py").exists()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.keyword, ast.arg)) and node.arg == "tracer":
                line = node.value.lineno if isinstance(node, ast.keyword) else node.lineno
                offenders.append(f"{rel}:{line} takes or passes tracer=")
            elif isinstance(node, ast.Attribute) and node.attr in ("tracer", "_tracer"):
                offenders.append(f"{rel}:{node.lineno} reads .{node.attr}")
            elif (
                isinstance(node, ast.Call)
                and rel != "core/pcc_update.py"
                and "UpdateTimings"
                in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            ):
                offenders.append(f"{rel}:{node.lineno} constructs UpdateTimings")
    assert not offenders, "\n".join(offenders)


#: The one ``.record(`` call that forwards a kind it was handed instead of
#: naming one: the fleet's emission, whose own call sites are checked.
FORWARDER = ("deploy/fleet.py", "FleetSilkRoad._emit")


def _qualified(tree):
    """``(name of the enclosing class/function chain, node)`` for every
    node of a module."""
    stack = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
            yield name, child
            stack.append((name, child))


def _record_sites(rel, tree):
    """``(call, kinds, values)`` for every record site in one module: each
    ``.record(t, kind, key, *values)`` call and, in ``deploy/fleet.py``,
    each ``self._emit(kind, *values)`` call.  ``kinds`` are the declared
    kinds its kind argument can be — one for a name imported from
    ``repro.obs.events``, several for a lookup in a module-level dict of
    such names — or ``None`` if it is anything else.  :data:`FORWARDER`'s
    call is not a site."""
    from repro.obs import events

    package = ("repro/" + rel).split("/")[:-1]
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[: len(package) - node.level + 1]
            if ".".join(base + [node.module or ""]) == "repro.obs.events":
                for alias in node.names:
                    imported[alias.asname or alias.name] = getattr(events, alias.name)
    tables = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Dict)
            and node.value.values
            and all(
                isinstance(v, ast.Name) and v.id in imported for v in node.value.values
            )
        ):
            kinds = [imported[v.id] for v in node.value.values]
            for target in node.targets:
                tables[target.id] = kinds
    for where, node in _qualified(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "record" and (rel, where) != FORWARDER:
            kind, values = node.args[1:2], node.args[3:]  # after (t, kind, key)
        elif node.func.attr == "_emit" and rel == FORWARDER[0]:
            kind, values = node.args[:1], node.args[1:]
        else:
            continue
        kind = kind[0] if kind else None
        if isinstance(kind, ast.Name) and isinstance(
            imported.get(kind.id), events.EventKind
        ):
            yield node, [imported[kind.id]], values
        elif isinstance(kind, ast.Subscript) and isinstance(kind.value, ast.Name):
            yield node, tables.get(kind.value.id), values
        else:
            yield node, None, values


def test_one_spelling_per_event():
    from repro.obs.events import CATALOGUE

    offenders = []
    sites = 0
    emitted = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for call, kinds, values in _record_sites(rel, tree):
            sites += 1
            where = f"{rel}:{call.lineno}"
            if kinds is None:
                offenders.append(f"{where} does not name a declared event kind")
                continue
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                offenders.append(f"{where} splats its values")
            if [kw.arg for kw in call.keywords if kw.arg != "key"]:
                offenders.append(f"{where} passes a field by keyword")
            via_emit = call.func.attr == "_emit"
            for kind in kinds:
                if len(values) != len(kind.fields):
                    offenders.append(
                        f"{where} passes {len(values)} value(s), "
                        f"{kind.category}.{kind.name} declares {len(kind.fields)}"
                    )
                # A fleet event recorded past ``_emit`` would miss the
                # replica journal; ``_emit`` records nothing else.
                if via_emit != (kind.category == "fleet"):
                    offenders.append(
                        f"{where} {'emits' if via_emit else 'records'} "
                        f"{kind.category}.{kind.name}: fleet events, and only "
                        f"they, go through FleetSilkRoad._emit"
                    )
                if via_emit:
                    emitted.add(kind)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and rel != "obs/events.py"
                and "EventKind"
                in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            ):
                offenders.append(f"{rel}:{node.lineno} constructs an EventKind")
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.args.kwarg is not None
                and any(
                    isinstance(inner, ast.Attribute) and inner.attr == "record"
                    for inner in ast.walk(node)
                )
            ):
                offenders.append(
                    f"{rel}:{node.lineno} {node.name}(**{node.args.kwarg.arg}) "
                    f"is a keyword-spelled record helper"
                )
    offenders.extend(
        f"fleet.{kind.name} is declared but emitted nowhere"
        for (category, _name), kind in CATALOGUE.items()
        if category == "fleet" and kind not in emitted
    )
    assert not offenders, "\n".join(offenders)
    assert sites >= 40, f"only {sites} record sites found: the walk is not seeing them"


def test_one_fault_model():
    # A switch and a fleet share one fault model: one kind enum, one plan
    # generator, one injector under ``faults/`` — and the recorder declares
    # exactly one ``fault.<value>`` event per kind.
    from repro.faults import FaultKind
    from repro.obs.events import CATALOGUE

    enums, generators, injectors = [], [], []
    for path in sorted((SRC / "faults").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                where = f"{rel}:{node.lineno} {node.name}"
                if any(getattr(base, "id", None) == "Enum" for base in node.bases):
                    enums.append(where)
                if any(
                    isinstance(item, ast.FunctionDef) and item.name == "attach"
                    for item in node.body
                ):
                    injectors.append(where)
            elif isinstance(node, ast.FunctionDef) and node.name == "generate":
                generators.append(f"{rel}:{node.lineno}")
    assert len(enums) == 1, f"fault-kind enums: {enums}"
    assert len(generators) == 1, f"fault-plan generators: {generators}"
    assert len(injectors) == 1, f"classes that attach a plan: {injectors}"
    declared = {name for category, name in CATALOGUE if category == "fault"}
    assert declared == {kind.value for kind in FaultKind}


def test_one_pcc_judgment():
    # A switch, a fleet and forensics name a broken connection's cause from
    # one table: each cause string is spelled on exactly one line under
    # src/repro (in obs/causes.py), and the per-switch second copy of the
    # attribution rule does not come back.
    from repro.obs import causes

    values = {
        value
        for name, value in vars(causes).items()
        if name.isupper() and isinstance(value, str)
    }
    assert len(values) == 8
    spelled = {value: set() for value in values}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and node.value in spelled:
                spelled[node.value].add((rel, node.lineno))
            elif (
                isinstance(node, ast.FunctionDef)
                and node.name == "_check_pcc_attribution"
            ):
                raise AssertionError(f"{rel}:{node.lineno} defines {node.name}")
    for value, where in spelled.items():
        assert len(where) == 1 and next(iter(where))[0] == "obs/causes.py", (
            f"{value!r} spelled at {sorted(where)}"
        )


#: The one function that picks a replay driver, and the one constructor
#: that takes the batched driver's chunk size.
DRIVER_SEAM = ("experiments/common.py", "PccWorkload.replay")
DRIVER_PARAMS = {
    DRIVER_SEAM: {"batched", "batch_size"},
    ("netsim/batchsim.py", "BatchedFlowSimulator.__init__"): {"batch_size"},
}


def test_one_replay_driver_seam():
    # The scalar replay is the test oracle, reached through one seam: no
    # runner, option object or CLI path picks a driver, so the two drivers
    # cannot drift apart behind a flag nobody sets.
    offenders = []
    seam_calls = 0
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        if "DriverOptions" in text:
            offenders.append(f"{rel} names DriverOptions")
        for where, node in _qualified(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.Call) and "FlowSimulator" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                if (rel, where) == DRIVER_SEAM:
                    seam_calls += 1
                else:
                    offenders.append(f"{rel}:{node.lineno} builds FlowSimulator")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                taken = {
                    a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                } & {"batched", "batch_size"}
                if taken - DRIVER_PARAMS.get((rel, where), set()):
                    offenders.append(
                        f"{rel}:{node.lineno} {where} takes {sorted(taken)}"
                    )
    assert not offenders, "\n".join(offenders)
    assert seam_calls == 1, f"FlowSimulator built {seam_calls} times in the seam"


#: The object model's hash seeds: the ConnTable's index units (its digest
#: units' salt beside it), the TransitTable's Bloom ways and the DIP-pool
#: slot selector.  The P4 twin imports them instead of restating them.
HASH_SEEDS = (0x51CC_0AD0, 0xD16E57, 0xB100F, 0xD1B0)


def test_one_declaration_per_hash_seed():
    # A seed written twice can drift: the P4 twin's copies once disagreed
    # with the switch's geometry without any test noticing.  Each seed is
    # an int literal on exactly one line under src/repro, however spelled.
    where = {seed: set() for seed in HASH_SEEDS}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and type(node.value) is int:
                if node.value in where:
                    where[node.value].add((rel, node.lineno))
    for seed, lines in where.items():
        assert len(lines) == 1, f"{seed:#x} written at {sorted(lines)}"


#: The one module outside ``asicsim/`` that packs table entries into words.
COST_MODEL = "core/sram_cost.py"
PACKING = {"bytes_for_entries", "words_for_entries"}


def test_one_sram_cost_model():
    # Seven independent spellings of the entry widths once disagreed (a
    # 34-bit and an 18-bit VIP entry); every table is priced through the
    # cost model's layouts instead.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name == "SramBudget" or (
                name in PACKING and not rel.startswith("asicsim/") and rel != COST_MODEL
            ):
                offenders.append(f"{rel}:{getattr(node, 'lineno', '?')} names {name}")
    deleted = ("repro.asicsim.pipeline.", "repro.asicsim.resources.")
    offenders += [
        f"{rel}:{line} imports {module}"
        for rel, module, line in _imports()
        if (module + ".").startswith(deleted)
    ]
    assert not offenders, "\n".join(offenders)
    assert not (SRC / "asicsim" / "pipeline.py").exists()
    assert not (SRC / "asicsim" / "resources.py").exists()


#: Config dataclass -> its module (relative to src/repro), whose own
#: spellings of a field do not count as setting it.
CONFIGS = {
    SilkRoadConfig: "core/config.py",
    ServeConfig: "serve/session.py",
    ObsOptions: "options.py",
}
#: Where the programs live, beside src/repro: a field only tests set is a
#: knob nothing turns.
PROGRAM_DIRS = ("perf", "examples")


def _spellings(path: Path) -> set:
    """Every call keyword and every string literal in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and type(node.value) is str:
            names.add(node.value)
    return names


def test_every_config_field_has_a_setter():
    program_files = [p for d in PROGRAM_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    per_file = {path: _spellings(path) for path in program_files}
    per_file.update(
        {path: _spellings(path) for path in sorted(SRC.rglob("*.py"))}
    )
    unset = []
    for config, module in CONFIGS.items():
        own = SRC / module
        spelled = set().union(*(names for path, names in per_file.items() if path != own))
        unset += [
            f"{config.__name__}.{f.name}" for f in fields(config) if f.name not in spelled
        ]
    assert not unset, (
        "config fields no program sets (make each a module constant beside "
        f"the code that reads it): {unset}"
    )


#: Benchmark files that are tests, not programs.
NOT_PROGRAMS = ("perf/test_perf.py",)

#: Why a definition no program runs may stay in src/repro (every entry of
#: ``TEST_ONLY`` gives one of these).
ORACLE = "an oracle a test checks program output against"
OBSERVATION = "test observation surface: the differential and partition tests compare runs through it"
ARTIFACT = "the §5.1 P4 artifact: DESIGN.md's §5.1 row and test_line_count_near_paper_scale read it"

#: (file relative to src/repro, qualified name or ``*`` for the whole module)
#: -> the reason it stays although only tests reach it.
TEST_ONLY = {
    # The inverse of `repro fleet-csv`'s dump_fleet.
    ("traces/io.py", "load_fleet"): ORACLE,
    # The inverse of to_prometheus_text (`repro pcc --format prom`).
    ("obs/export.py", "parse_prometheus_text"): ORACLE,
    # Closed forms the measured false-positive rates are held to.
    ("asicsim/registers.py", "BloomFilter.expected_false_positive_rate"): ORACLE,
    ("core/transit_table.py", "TransitTable.expected_false_positive_rate"): ORACLE,
    ("obs/recorder.py", "FlightRecorder.to_dicts"): OBSERVATION,
    ("obs/recorder.py", "FlightRecorder.total_recorded"): OBSERVATION,
    ("experiments/parallel.py", "FleetPartitionedResult.audit_fingerprint"): OBSERVATION,
    # Whether the emitter gets a CLI reader or goes is open (ROADMAP item 6).
    ("p4/emit.py", "*"): ARTIFACT,
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_all(stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in targets
    )


def _references(nodes, package_init: bool) -> set:
    """Every name ``nodes`` may read: a ``Name``, an ``Attribute``, an import
    alias (not in a package ``__init__``, whose imports only re-export) and
    an identifier-shaped string (``getattr`` by name)."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias) and not package_init:
                names.add(node.name.rsplit(".", 1)[-1])
                names.add(node.asname or node.name)
            elif (
                isinstance(node, ast.Constant)
                and type(node.value) is str
                and node.value.isidentifier()
            ):
                names.add(node.value)
    return names


def _facade_results() -> set:
    """(file, class) of every class ``repro.api.__all__`` exports that one
    of its functions returns: a caller holds that object, and its methods
    are the facade's reading surface."""
    import inspect
    import typing

    import repro.api as api

    exported = [getattr(api, name) for name in api.__all__]
    returned = {
        typing.get_type_hints(obj).get("return") for obj in exported if inspect.isfunction(obj)
    }
    return {
        (cls.__module__.removeprefix("repro.").replace(".", "/") + ".py", cls.__name__)
        for cls in exported
        if inspect.isclass(cls) and cls in returned
    }


def _test_only_definitions(allowed) -> dict:
    """``{(file, qualname): lines}`` of the outermost definitions under
    src/repro that no program reaches: a fixed point from the programs
    (module-level code under src/repro, and ``PROGRAM_DIRS``), in which a
    definition reached only from unreached ones is unreached too.  A
    definition is reached if a reached body reads its name, if it is a
    dunder, if it is a method of a class in ``_facade_results()``, or if
    ``allowed`` names it."""
    definitions = {}  # (file, qualname) -> (name, references, lines)
    reached = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        package_init = path.name == "__init__.py"
        module_level = []

        def collect(body, prefix, loose):
            for stmt in body:
                if isinstance(stmt, _DEFINITIONS):
                    own = [stmt]
                    if isinstance(stmt, ast.ClassDef):
                        own = [s for s in stmt.body if not isinstance(s, _DEFINITIONS)]
                        own += stmt.decorator_list + stmt.bases + stmt.keywords
                        collect(stmt.body, f"{prefix}{stmt.name}.", None)
                    definitions[(rel, prefix + stmt.name)] = (
                        stmt.name,
                        _references(own, package_init),
                        stmt.end_lineno - stmt.lineno + 1,
                    )
                elif loose is not None and not _is_all(stmt):
                    loose.append(stmt)

        collect(ast.parse(path.read_text(), filename=str(path)).body, "", module_level)
        reached |= _references(module_level, package_init)
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.relative_to(ROOT).as_posix() not in NOT_PROGRAMS:
                tree = ast.parse(path.read_text(), filename=str(path))
                reached |= _references([tree], package_init=False)

    facade = _facade_results()
    live = set()
    for (rel, qualname), (name, *_) in definitions.items():
        if (
            (rel, qualname) in allowed
            or (rel, "*") in allowed
            or (rel, qualname.rpartition(".")[0]) in facade
            or (name.startswith("__") and name.endswith("__"))
        ):
            live.add((rel, qualname))
    grew = True
    while grew:
        grew = False
        for key, (name, references, _lines) in definitions.items():
            if key not in live and name in reached:
                live.add(key)
            if key in live and not references <= reached:
                reached |= references
                grew = True
    dead = {key for key in definitions if key not in live}
    # A method of an unreached class is reported with its class.
    return {
        (rel, qualname): definitions[(rel, qualname)][2]
        for rel, qualname in sorted(dead)
        if not any(
            (rel, qualname.rsplit(".", depth)[0]) in dead
            for depth in range(1, qualname.count(".") + 1)
        )
    }


def test_every_definition_has_a_program_reader():
    """Nothing under src/repro runs only in tests: every function, class and
    method is reached from a program (src/repro itself, ``perf/``,
    ``examples/``), or ``TEST_ONLY`` says why it stays."""
    orphans = _test_only_definitions(TEST_ONLY)
    assert not orphans, "definitions only tests reach (delete them):\n" + "\n".join(
        f"{rel}:{qualname} ({lines} lines)" for (rel, qualname), lines in orphans.items()
    )


def test_test_only_allow_list_has_no_stale_entries():
    assert set(TEST_ONLY.values()) <= {ORACLE, OBSERVATION, ARTIFACT}
    unreached = _test_only_definitions(allowed=set())
    stale = [
        entry
        for entry in TEST_ONLY
        if entry not in unreached
        and not (entry[1] == "*" and any(rel == entry[0] for rel, _ in unreached))
    ]
    assert not stale, f"TEST_ONLY entries a program reaches or that are gone: {stale}"


def test_one_name_per_count():
    """A count lives in the registry under its one name: no ``report()``
    dict renames it (the fleet's control-plane counters excepted: they are
    replicated across partition replicas), no switch attribute stores it,
    and neither a simulation report nor a sharded run carries a dict of
    counts beside its registry."""
    from repro.core import SilkRoadSwitch
    from repro.experiments.common import build_workload
    from repro.experiments.parallel import ShardedRunResult, ShardResult
    from repro.netsim.simulator import SimulationReport

    reporters = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "report"
    )
    assert reporters == ["deploy/fleet.py"], reporters

    workload = build_workload(60.0, scale=0.02, seed=7, horizon_s=10.0)
    _report, _conns, switch = workload.replay(SilkRoadSwitch)
    assert switch.connections_seen > 0
    stored = [
        name
        for name, value in vars(switch).items()
        if not name.startswith("_") and isinstance(value, (int, float, dict))
    ]
    assert not stored, f"counts stored beside the registry: {stored}"
    assert not [f.name for f in fields(SimulationReport) if "Dict" in str(f.type)]
    for result in (ShardResult, ShardedRunResult):
        assert "counters" not in {f.name for f in fields(result)}, result.__name__


def _catalogued_names():
    """Every ``<scope>.<name>`` the metric catalogue tables list."""
    text = (ROOT / "docs" / "observability.md").read_text()
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    names, scope = set(), None
    for line in section.splitlines():
        if line.startswith("### "):
            scope = line.split("`")[1].removesuffix(".*")
        elif line.startswith("| `") and scope is not None:
            cell = line.split("|")[1]
            names |= {f"{scope}.{part.strip().strip('`')}" for part in cell.split("/")}
    return names


def test_one_metric_catalogue():
    """docs/observability.md lists exactly what a fresh switch registers
    (the per-stage ``stage<i>_occupancy`` gauges as one pattern row)."""
    import re

    from repro.core import SilkRoadSwitch

    registered = {
        re.sub(r"\.stage\d+_occupancy$", ".stage<i>_occupancy", name)
        for name in SilkRoadSwitch().metrics.names()
    }
    catalogued = _catalogued_names()
    assert registered - catalogued == set(), "registered, not catalogued"
    assert catalogued - registered == set(), "catalogued, not registered"


def test_one_benchmark_harness():
    """``perf/`` is the one benchmark: no second harness of pytest-benchmark
    timers (which nothing reads) sits beside it, and no test depends on the
    plugin.  A paper claim is asserted by a test under ``tests/``."""
    import re

    assert not (ROOT / "benchmarks").exists(), "a second benchmark harness"
    offenders = []
    for top in ("tests", "src", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    imported = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    imported = [node.module or ""]
                else:
                    imported = []
                where = f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', 0)}"
                offenders += [
                    f"{where} imports {name}"
                    for name in imported
                    if name.split(".")[0] == "pytest_benchmark"
                ]
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                    if "benchmark" in {arg.arg for arg in args}:
                        offenders.append(f"{where} takes a benchmark parameter")
    assert not offenders, offenders
    pyproject = (ROOT / "pyproject.toml").read_text()
    (extra,) = re.findall(r"^test\s*=\s*\[(.*?)\]", pyproject, re.MULTILINE | re.DOTALL)
    assert "pytest-benchmark" not in extra, "pytest-benchmark is a test dependency"


def _node_exists(node: str) -> bool:
    """Whether ``path::Name[::name]`` names a file and a definition in it
    (a parametrize id such as ``[16]`` is ignored)."""
    path, *names = node.split("::")
    file = ROOT / path
    if not file.is_file():
        return False
    body = ast.parse(file.read_text(), filename=str(file)).body
    for name in names:
        name = name.split("[", 1)[0]
        found = [
            n for n in body
            if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def test_design_regeneration_targets_exist():
    """DESIGN.md's experiment index (§4, "Regeneration target") and its
    ablation list (§5) name, for every row and every ablation, a test node
    under ``tests/`` that exists: the claim is held by the suite every
    change must pass, and the document cannot drift from it."""
    import re

    text = (ROOT / "DESIGN.md").read_text()
    index = text.split("## 4. ", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in index.splitlines() if line.startswith("| ")]
    header, rows = rows[0], [r for r in rows[1:] if not r.startswith("|---")]
    column = [c.strip() for c in header.strip("|").split("|")].index("Regeneration target")
    entries = {row.split("|")[1].strip(): row.strip("|").split("|")[column] for row in rows}
    ablations = text.split("## 5. ", 1)[1].split("\n## ", 1)[0]
    for bullet in re.split(r"^\* ", ablations, flags=re.MULTILINE)[1:]:
        entries[bullet.split("(", 1)[0].strip()] = bullet
    assert len(entries) > 25, sorted(entries)

    missing, unresolved = [], []
    for label, cell in entries.items():
        nodes = re.findall(r"`(tests/[^`]*::[^`]*)`", cell)
        if not nodes:
            missing.append(label)
        unresolved += [node for node in nodes if not _node_exists(node)]
        unresolved += [
            path for path in re.findall(r"`([\w./-]+\.py)\b", cell)
            if not (ROOT / path).is_file()
        ]
    assert not missing, f"DESIGN.md entries that name no test node: {missing}"
    assert not unresolved, f"DESIGN.md names tests that do not exist: {unresolved}"
