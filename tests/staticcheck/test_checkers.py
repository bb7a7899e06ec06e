"""Fixture-snippet unit tests for the SC001–SC005 checkers."""

from pathlib import Path

import pytest

from repro.staticcheck import build_context
from repro.staticcheck.checkers import (check_clock_discipline,
                                        check_exception_discipline,
                                        check_host_entropy)
from repro.staticcheck.contract import (contract_findings,
                                        default_prologue_ok,
                                        live_contract_inputs)
from repro.staticcheck.layering import (extract_edges, find_cycles,
                                        layer_of, layering_findings)

pytestmark = pytest.mark.staticcheck


def ctx_for(source, module="repro.winsim.fixture", path="fixture.py"):
    return build_context(path, source, module=module)


class TestSC001ClockDiscipline:
    def test_flags_forbidden_imports(self):
        findings = check_clock_discipline(ctx_for(
            "import time\n"
            "from random import random\n"
            "from datetime import datetime\n"))
        assert [f.line for f in findings] == [1, 2, 3]
        assert all(f.rule == "SC001" for f in findings)
        assert "import time" in findings[0].message

    def test_flags_host_clock_method_calls(self):
        findings = check_clock_discipline(ctx_for(
            "x = datetime.now()\n"
            "y = date.today()\n"
            "z = time.perf_counter_ns()\n"))
        assert len(findings) == 3
        assert "datetime.now()" in findings[0].message

    def test_clean_virtual_clock_code_passes(self):
        findings = check_clock_discipline(ctx_for(
            "def tick(machine):\n"
            "    return machine.clock.now_ns\n"))
        assert findings == []

    def test_relative_import_of_time_like_module_allowed(self):
        # ``from .time import x`` is a package-local module, not host time.
        findings = check_clock_discipline(ctx_for(
            "from .time import helper\n"))
        assert findings == []

    def test_winsim_is_clock_disciplined(self):
        """Every winsim file is clean under raw SC001: no baseline."""
        winsim = Path(__file__).resolve().parents[2] / "src/repro/winsim"
        findings = []
        for path in sorted(winsim.rglob("*.py")):
            ctx = ctx_for(path.read_text(encoding="utf-8"), path=str(path))
            findings += check_clock_discipline(ctx)
            findings += [ctx.parse_error] if ctx.parse_error else []
        assert findings == []


class TestSC002HostEntropy:
    def test_flags_entropy_imports(self):
        findings = check_host_entropy(ctx_for(
            "import uuid\n"
            "from secrets import token_bytes\n"))
        assert [f.line for f in findings] == [1, 2]
        assert all(f.rule == "SC002" for f in findings)

    def test_flags_urandom_and_builtin_hash(self):
        findings = check_host_entropy(ctx_for(
            "key = os.urandom(16)\n"
            "slot = hash(name) & 0xFFFF\n"))
        assert len(findings) == 2
        assert "os.urandom" in findings[0].message
        assert "PYTHONHASHSEED" in findings[1].message

    def test_flags_set_iteration(self):
        findings = check_host_entropy(ctx_for(
            "for item in {1, 2, 3}:\n"
            "    emit(item)\n"
            "for item in set(values):\n"
            "    emit(item)\n"))
        assert [f.line for f in findings] == [1, 3]

    def test_sorted_set_and_membership_pass(self):
        findings = check_host_entropy(ctx_for(
            "for item in sorted({1, 2, 3}):\n"
            "    emit(item)\n"
            "present = {x.lower() for x in names}\n"
            "ok = 'a' in present\n"))
        assert findings == []


class TestSC005ExceptionDiscipline:
    def test_flags_bare_except(self):
        findings = check_exception_discipline(ctx_for(
            "try:\n    risky()\nexcept:\n    handle()\n"))
        assert len(findings) == 1
        assert "bare 'except:'" in findings[0].message

    def test_flags_swallowed_broad_except(self):
        findings = check_exception_discipline(ctx_for(
            "try:\n    risky()\nexcept Exception:\n    pass\n"))
        assert len(findings) == 1
        assert "swallow" in findings[0].message

    def test_flags_swallowed_tuple_with_broad_member(self):
        findings = check_exception_discipline(ctx_for(
            "try:\n    risky()\n"
            "except (ValueError, BaseException):\n    ...\n"))
        assert len(findings) == 1

    def test_handled_broad_and_specific_excepts_pass(self):
        findings = check_exception_discipline(ctx_for(
            "try:\n    risky()\n"
            "except Exception as exc:\n    log(exc)\n"
            "try:\n    risky()\n"
            "except KeyError:\n    pass\n"))
        assert findings == []


def _tree(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path; return parsed contexts."""
    contexts = []
    for relpath, source in sorted(files.items()):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        contexts.append(build_context(str(target), source))
    return contexts


class TestSC003Layering:
    def test_layer_of(self):
        assert layer_of("repro.winsim.clock") == "winsim"
        assert layer_of("repro") is None

    def test_forbidden_edge_winsim_to_core(self, tmp_path):
        contexts = _tree(tmp_path, {
            "repro/winsim/clock.py": "from ..core.engine import X\n",
            "repro/core/engine.py": "x = 1\n",
        })
        findings = layering_findings(contexts)
        assert len(findings) == 1
        assert "winsim must not import core" in findings[0].message

    def test_deferred_forbidden_edge_still_flagged(self, tmp_path):
        contexts = _tree(tmp_path, {
            "repro/winapi/k.py": "def f():\n"
                                 "    from ..core import engine\n",
            "repro/core/engine.py": "x = 1\n",
        })
        findings = layering_findings(contexts)
        assert len(findings) == 1
        assert "winapi must not import core" in findings[0].message

    def test_cycle_detected(self, tmp_path):
        contexts = _tree(tmp_path, {
            "repro/core/a.py": "from .b import f\n",
            "repro/core/b.py": "from .a import g\n",
        })
        findings = layering_findings(contexts)
        assert len(findings) == 1
        assert "import cycle" in findings[0].message
        assert "repro.core.a <-> repro.core.b" in findings[0].message

    def test_deferred_import_breaks_cycle(self, tmp_path):
        contexts = _tree(tmp_path, {
            "repro/core/a.py": "from .b import f\n",
            "repro/core/b.py": "def g():\n    from .a import h\n",
        })
        assert layering_findings(contexts) == []

    def test_allowed_direction_passes(self, tmp_path):
        contexts = _tree(tmp_path, {
            "repro/core/engine.py": "from ..winsim.clock import Clock\n",
            "repro/winsim/clock.py": "class Clock: pass\n",
        })
        assert layering_findings(contexts) == []

    def test_real_tree_is_clean(self):
        import pathlib
        from repro.staticcheck import PARSE_CACHE, collect_files
        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        contexts = [PARSE_CACHE.get(path)
                    for path in collect_files([str(src)])]
        assert layering_findings(contexts) == []

    def test_edge_extraction_resolves_relative_levels(self, tmp_path):
        contexts = _tree(tmp_path, {
            "repro/winapi/calling.py":
                "from ..hooking.injection import hook_manager_of\n",
            "repro/hooking/injection.py": "x = 1\n",
        })
        known = {c.module for c in contexts}
        edges = extract_edges(contexts[1], known)  # sorted: winapi second
        assert [(e.src, e.dst) for e in edges] == \
            [("repro.winapi.calling", "repro.hooking.injection")]

    def test_find_cycles_self_loop(self):
        from repro.staticcheck.layering import ImportEdge
        edges = [ImportEdge("repro.a.m", "repro.a.m2", 1, False),
                 ImportEdge("repro.a.m2", "repro.a.m", 1, False)]
        assert find_cycles(edges) == [["repro.a.m", "repro.a.m2"]]


class TestSC004ApiContract:
    def _anchor(self):
        return build_context(
            "handlers.py",
            'CORE = (\n    "kernel32.dll!IsDebuggerPresent",\n)\n',
            module="repro.core.handlers")

    def test_broken_fixture_missing_export(self):
        findings = contract_findings(
            self._anchor(),
            core_apis=["kernel32.dll!NoSuchApi"] + [f"d.dll!F{i}"
                                                   for i in range(28)],
            aliases={}, decoys=[],
            handler_names=[f"d.dll!F{i}" for i in range(28)],
            exports=[f"d.dll!F{i}" for i in range(28)],
            prologue_ok=lambda name: True)
        messages = "\n".join(f.message for f in findings)
        assert "kernel32.dll!NoSuchApi does not resolve" in messages
        assert "has no handler" in messages

    def test_broken_fixture_bad_prologue(self):
        findings = contract_findings(
            self._anchor(),
            core_apis=[f"d.dll!F{i}" for i in range(29)],
            aliases={}, decoys=[],
            handler_names=[f"d.dll!F{i}" for i in range(29)],
            exports=[f"d.dll!F{i}" for i in range(29)],
            prologue_ok=lambda name: name != "d.dll!F3")
        assert len(findings) == 1
        assert "prologue" in findings[0].message

    def test_wrong_core_count_flagged(self):
        findings = contract_findings(
            self._anchor(), core_apis=["d.dll!F0"], aliases={}, decoys=[],
            handler_names=["d.dll!F0"], exports=["d.dll!F0"],
            prologue_ok=lambda name: True)
        assert any("exactly 29" in f.message for f in findings)

    def test_alias_to_handlerless_base_flagged(self):
        findings = contract_findings(
            self._anchor(),
            core_apis=[f"d.dll!F{i}" for i in range(29)],
            aliases={"d.dll!FW": "d.dll!F0X"}, decoys=[],
            handler_names=[f"d.dll!F{i}" for i in range(29)] +
                          ["d.dll!FW", "d.dll!F0X"],
            exports=[f"d.dll!F{i}" for i in range(29)] +
                    ["d.dll!FW", "d.dll!F0X"],
            prologue_ok=lambda name: True)
        assert findings == []  # base has a handler: clean

        findings = contract_findings(
            self._anchor(),
            core_apis=[f"d.dll!F{i}" for i in range(29)],
            aliases={"d.dll!FW": "d.dll!Missing"}, decoys=[],
            handler_names=[f"d.dll!F{i}" for i in range(29)] +
                          ["d.dll!FW"],
            exports=[f"d.dll!F{i}" for i in range(29)] +
                    ["d.dll!FW", "d.dll!Missing"],
            prologue_ok=lambda name: True)
        assert any("no registered handler" in f.message for f in findings)

    def test_live_tree_is_conformant(self):
        core, aliases, decoys, handler_names, exports = \
            live_contract_inputs()
        findings = contract_findings(
            self._anchor(), core, aliases, decoys, handler_names, exports,
            default_prologue_ok)
        assert findings == []
        assert len(core) == 29
