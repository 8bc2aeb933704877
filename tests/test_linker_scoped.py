"""linker/scoped.py edge cases: scope_chain traversal and peek_exports.

The module-graph builders here (``chain_of``, ``diamond``) are also the
fixtures the symbol-audit tests in test_analyze.py run against, so the
static verifier is exercised on exactly the scope shapes the real
traversal produces.
"""

from repro import boot
from repro.bench.workloads import make_shell
from repro.linker import scoped
from repro.linker.classes import SharingClass
from repro.linker.ldl import LoadedModule
from repro.linker.scoped import peek_exports, scope_chain
from repro.linker.segments import TRAILER, TRAILER_MAGIC
from repro.objfile.format import (
    ObjectFile,
    ObjectKind,
    SEC_ABS,
    SEC_TEXT,
    Symbol,
)


def module(name, exports=(), kind=ObjectKind.SEGMENT, section=SEC_ABS):
    """A LoadedModule whose meta exports *exports* as (name, value)."""
    meta = ObjectFile(name, kind=kind)
    for sym, value in exports:
        meta.symbols[sym] = Symbol(sym, section, value)
    return LoadedModule(name, f"/shared/{name}", meta, 0x3000_0000, 0,
                        SharingClass.DYNAMIC_PUBLIC)


def chain_of(*specs):
    """Linear parent chain: first spec is the leaf, last the root."""
    modules = [module(name, exports) for name, exports in specs]
    for child, parent in zip(modules, modules[1:]):
        child.add_parent(parent)
    return modules


def diamond():
    """leaf -> (left, right) -> root; left and right share the root."""
    leaf = module("leaf")
    left = module("left", [("dup", 0x3000_1000)])
    right = module("right", [("dup", 0x3000_2000)])
    root = module("root", [("deep", 0x3000_3000)])
    leaf.add_parent(left)
    leaf.add_parent(right)
    left.add_parent(root)
    right.add_parent(root)
    return leaf, left, right, root


class TestScopeChain:
    def test_single_module_yields_itself(self):
        leaf = module("solo")
        assert list(scope_chain(leaf)) == [leaf]

    def test_linear_chain_order(self):
        leaf, mid, root = chain_of(("leaf", ()), ("mid", ()),
                                   ("root", ()))
        assert list(scope_chain(leaf)) == [leaf, mid, root]

    def test_diamond_visits_shared_root_once(self):
        leaf, left, right, root = diamond()
        walk = list(scope_chain(leaf))
        assert walk == [leaf, left, right, root]
        assert walk.count(root) == 1

    def test_bfs_level_order_beats_depth(self):
        # A deep chain on one side, a shallow parent on the other: the
        # shallow parent must be visited before the deep grandparents.
        leaf = module("leaf")
        deep1 = module("deep1")
        deep2 = module("deep2", [("target", 0x3000_1000)])
        shallow = module("shallow", [("target", 0x3000_2000)])
        leaf.add_parent(deep1)
        leaf.add_parent(shallow)
        deep1.add_parent(deep2)
        walk = list(scope_chain(leaf))
        assert walk.index(shallow) < walk.index(deep2)

    def test_shadowed_duplicate_resolves_to_nearest_level(self):
        # "children search up from their current position to the root":
        # the leaf's own export wins over the identically named export
        # two levels up.
        leaf, mid, root = chain_of(
            ("leaf", [("fn", 0x3000_0100)]),
            ("mid", ()),
            ("root", [("fn", 0x3000_9900)]),
        )
        for node in scope_chain(leaf):
            address = node.exports().get("fn")
            if address is not None:
                break
        assert address == 0x3000_0100

    def test_cycle_terminates(self):
        # add_parent refuses self, but a mutual cycle through the DAG
        # must still terminate thanks to the seen-set.
        a = module("a")
        b = module("b")
        a.add_parent(b)
        b.parents.append(a)  # bypass add_parent to force the cycle
        assert list(scope_chain(a)) == [a, b]


class TestPeekExports:
    def put(self, kernel, path, data):
        kernel.vfs.write_whole(path, data, 0)

    def test_template_exports_names(self, kernel, shell, dirs):
        obj = ObjectFile("m.o")
        obj.text.extend(bytes(4))
        obj.symbols["fn"] = Symbol("fn", SEC_TEXT, 0)
        self.put(kernel, "/src/m.o", obj.to_bytes())
        assert peek_exports(kernel, shell, "/src/m.o") == {"fn": 0}

    def test_segment_exports_absolute_addresses(self, kernel, shell,
                                                dirs):
        meta = ObjectFile("seg", kind=ObjectKind.SEGMENT)
        meta.symbols["fn"] = Symbol("fn", SEC_ABS, 0x3000_0010)
        meta_bytes = meta.to_bytes()
        image = bytes(4096)
        blob = image + meta_bytes + TRAILER.pack(
            TRAILER_MAGIC, len(image), len(meta_bytes), 0
        )
        self.put(kernel, "/src/seg", blob)
        exports = peek_exports(kernel, shell, "/src/seg")
        assert exports == {"fn": 0x3000_0010}

    def test_local_symbols_not_exported(self, kernel, shell, dirs):
        from repro.hw.asm import assemble

        obj = assemble(".text\n.globl fn\nfn:\nlabel:\njr ra", "m.o")
        self.put(kernel, "/src/m.o", obj.to_bytes())
        exports = peek_exports(kernel, shell, "/src/m.o")
        assert "fn" in exports and "label" not in exports

    def test_non_module_file_is_none(self, kernel, shell, dirs):
        self.put(kernel, "/src/readme", b"just some prose, no trailer")
        assert peek_exports(kernel, shell, "/src/readme") is None

    def test_garbage_dot_o_is_none(self, kernel, shell, dirs):
        self.put(kernel, "/src/bad.o", b"XXXXnot an object at all")
        assert peek_exports(kernel, shell, "/src/bad.o") is None

    def test_short_file_is_none(self, kernel, shell, dirs):
        self.put(kernel, "/src/tiny", b"ab")
        assert peek_exports(kernel, shell, "/src/tiny") is None

    def test_missing_file_is_none(self, kernel, shell, dirs):
        assert peek_exports(kernel, shell, "/src/nope.o") is None

    def test_empty_chain_of_missing_parents(self, kernel, shell, dirs):
        # A root with no parents: the chain is just the root, and a
        # miss there is a miss, full stop.
        root = module("root")
        misses = [node.exports().get("nowhere")
                  for node in scope_chain(root)]
        assert misses == [None]


def template(name, *exports):
    obj = ObjectFile(name)
    obj.text.extend(bytes(4))
    for sym in exports:
        obj.symbols[sym] = Symbol(sym, SEC_TEXT, 0)
    return obj.to_bytes()


class TestExportMemo:
    """Each distinct symbol table is parsed once per boot; the reads
    that find it still run and are still charged."""

    def put(self, kernel, path, data):
        kernel.vfs.write_whole(path, data, 0)

    def test_module_has_no_dict_state(self):
        module_dicts = [name for name, value in vars(scoped).items()
                        if isinstance(value, dict)
                        and not name.startswith("__")]
        assert module_dicts == []

    def test_two_boots_share_no_memo(self):
        first = boot().kernel
        first_shell = make_shell(first)
        first.vfs.makedirs("/src")
        self.put(first, "/src/m.o", template("m.o", "fn"))
        assert peek_exports(first, first_shell, "/src/m.o") == {"fn": 0}
        assert len(first.export_tables) == 1
        second = boot().kernel
        assert second.export_tables == {}
        assert second.export_tables is not first.export_tables

    def test_hit_skips_the_parse_but_not_the_syscalls(self, kernel, shell,
                                                      dirs, monkeypatch):
        self.put(kernel, "/src/m.o", template("m.o", "fn"))
        parses = []
        parse = ObjectFile.from_bytes
        monkeypatch.setattr(
            ObjectFile, "from_bytes",
            lambda data, offset=0: parses.append(data) or parse(data,
                                                               offset))

        def peek_cost():
            before = dict(kernel.clock.by_category)
            assert peek_exports(kernel, shell, "/src/m.o") == {"fn": 0}
            return {k: v - before.get(k, 0)
                    for k, v in kernel.clock.by_category.items()}

        peek_cost()  # the first read also pages the file in
        hit = peek_cost()
        assert len(parses) == 1
        kernel.export_tables.clear()
        miss = peek_cost()
        assert len(parses) == 2
        assert hit == miss and hit["syscalls"] > 0

    def test_segment_trailer_is_memoised(self, kernel, shell, dirs):
        meta = ObjectFile("seg", kind=ObjectKind.SEGMENT)
        meta.symbols["fn"] = Symbol("fn", SEC_ABS, 0x3000_0010)
        meta_bytes = meta.to_bytes()
        self.put(kernel, "/src/seg", bytes(64) + meta_bytes + TRAILER.pack(
            TRAILER_MAGIC, 64, len(meta_bytes), 0))
        for _ in range(2):
            assert peek_exports(kernel, shell, "/src/seg") == \
                {"fn": 0x3000_0010}
        assert kernel.export_tables == {meta_bytes: {"fn": 0x3000_0010}}

    def test_rewritten_template_gives_new_exports(self, kernel, shell,
                                                  dirs):
        self.put(kernel, "/src/m.o", template("m.o", "old"))
        assert peek_exports(kernel, shell, "/src/m.o") == {"old": 0}
        self.put(kernel, "/src/m.o", template("m.o", "new", "newer"))
        assert peek_exports(kernel, shell, "/src/m.o") == \
            {"new": 0, "newer": 0}

    def test_mutating_a_result_does_not_reach_the_memo(self, kernel, shell,
                                                       dirs):
        self.put(kernel, "/src/m.o", template("m.o", "fn"))
        exports = peek_exports(kernel, shell, "/src/m.o")
        exports["planted"] = 0x1234
        del exports["fn"]
        assert peek_exports(kernel, shell, "/src/m.o") == {"fn": 0}

    def test_garbage_stays_none_on_a_repeated_peek(self, kernel, shell,
                                                   dirs):
        # Bytes that do not parse are not memoised: a damaged read is
        # unique, so keeping it would only hold memory for the boot.
        self.put(kernel, "/src/bad.o", b"XXXXnot an object at all")
        assert peek_exports(kernel, shell, "/src/bad.o") is None
        assert kernel.export_tables == {}
        assert peek_exports(kernel, shell, "/src/bad.o") is None
