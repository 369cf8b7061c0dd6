"""Static-rule fixtures for simlint (SL001-SL007).

Every rule gets at least one positive fixture (a violation the rule must
catch, with the right code and line) and one negative fixture (idiomatic
code the rule must stay silent on), plus suppression/scoping coverage
and the repo-wide acceptance check: the real ``repro`` package lints
clean with zero suppression comments.
"""

import textwrap

from repro.tools.simlint import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL,
    STATIC_RULES,
    analyze_source,
    collect_static_findings,
    default_root,
    run_lint,
)
from repro.tools.simlint.static_rules import _SUPPRESS_RE


def lint(source, relpath="sim/fixture.py"):
    return analyze_source(textwrap.dedent(source), relpath)


def codes(source, relpath="sim/fixture.py"):
    return [f.code for f in lint(source, relpath)]


# ----------------------------------------------------------------------
# SL001 — yield discipline
# ----------------------------------------------------------------------
class TestYieldDiscipline:
    def test_string_yield_flagged(self):
        found = lint("""
            def barrier_proc(self):
                yield "done"
        """)
        assert [f.code for f in found] == ["SL001"]
        assert found[0].line == 3
        assert "barrier_proc" in found[0].message

    def test_collection_and_bool_yields_flagged(self):
        assert codes("""
            def p1(self):
                yield [1, 2]
            def p2(self):
                yield True
            def p3(self):
                yield {"a": 1}
        """) == ["SL001", "SL001", "SL001"]

    def test_stray_bare_yield_flagged(self):
        assert codes("""
            def proc(self):
                x = compute()
                yield
        """) == ["SL001"]

    def test_legal_yields_pass(self):
        # Delays, events, processes, and the documented generator-marker
        # idiom (`yield` directly after `return`) are all legal.
        assert codes("""
            def proc(self, params, ev):
                yield params.t_step_us
                yield ev
                msg = yield self.queue.get()
                return msg

            def handler(self):
                self.fire()
                return
                yield
        """) == []


# ----------------------------------------------------------------------
# SL002 — wall-clock reads
# ----------------------------------------------------------------------
class TestWallClock:
    def test_module_call_flagged(self):
        found = lint("""
            import time
            def stamp(self):
                return time.time()
        """)
        assert [f.code for f in found] == ["SL002"]
        assert found[0].line == 4

    def test_from_import_flagged(self):
        assert codes("""
            from time import perf_counter
            def stamp(self):
                return perf_counter()
        """) == ["SL002"]

    def test_sim_now_passes(self):
        assert codes("""
            def stamp(self, sim):
                return sim.now
        """) == []

    def test_out_of_scope_path_exempt(self):
        # Harness code (tools/, experiments/) may read the wall clock.
        assert codes("""
            import time
            def stamp():
                return time.time()
        """, relpath="tools/bench.py") == []


# ----------------------------------------------------------------------
# SL003 — unseeded RNG
# ----------------------------------------------------------------------
class TestUnseededRng:
    def test_module_global_draw_flagged(self):
        assert codes("""
            import random
            def jitter(self):
                return random.random()
        """) == ["SL003"]

    def test_from_import_draw_flagged(self):
        assert codes("""
            from random import choice
            def pick(self, peers):
                return choice(peers)
        """) == ["SL003"]

    def test_unseeded_random_instance_flagged(self):
        assert codes("""
            import random
            def make_rng():
                return random.Random()
        """) == ["SL003"]

    def test_seeded_instance_and_deterministic_rng_pass(self):
        assert codes("""
            import random
            from repro.sim.rng import DeterministicRng
            def make_rngs(seed):
                return random.Random(seed), DeterministicRng(seed, "unit")
        """) == []


# ----------------------------------------------------------------------
# SL004 — id() ordering
# ----------------------------------------------------------------------
class TestIdUsage:
    def test_id_in_logic_flagged(self):
        assert codes("""
            def sort_key(packet):
                return id(packet)
        """) == ["SL004"]

    def test_id_in_repr_exempt(self):
        assert codes("""
            class Port:
                def __repr__(self):
                    return f"<Port at {id(self):#x}>"
        """) == []


# ----------------------------------------------------------------------
# SL005 — unordered iteration
# ----------------------------------------------------------------------
class TestUnorderedIteration:
    def test_set_iteration_flagged(self):
        assert codes("""
            def fan_out(self, sim):
                peers = {1, 2, 3}
                for p in peers:
                    sim.schedule(0.0, self.poke, p)
        """) == ["SL005"]

    def test_set_comprehension_flagged(self):
        assert codes("""
            def snapshot(self, pending: set):
                return [p for p in pending]
        """) == ["SL005"]

    def test_dict_iteration_that_schedules_flagged(self):
        assert codes("""
            def drain(self, sim, queues: dict):
                for dst in queues:
                    sim.schedule(0.0, self.kick, dst)
        """) == ["SL005"]

    def test_pure_dict_iteration_passes(self):
        # Reading a dict without scheduling from the loop body is fine.
        assert codes("""
            def total(self, queues: dict):
                n = 0
                for dst in queues:
                    n += len(queues[dst])
                return n
        """) == []

    def test_sorted_iteration_passes(self):
        assert codes("""
            def drain(self, sim, queues: dict):
                for dst in sorted(queues):
                    sim.schedule(0.0, self.kick, dst)
        """) == []


# ----------------------------------------------------------------------
# SL006 — tracer guard
# ----------------------------------------------------------------------
class TestTracerGuard:
    def test_unguarded_record_flagged(self):
        found = lint("""
            def deliver(self, tracer, now):
                tracer.add_span(now, now, "wire.n0-n1", "delivered")
        """)
        assert [f.code for f in found] == ["SL006"]
        assert "enabled" in found[0].fixit

    def test_guarded_record_passes(self):
        assert codes("""
            def deliver(self, tracer, now):
                if tracer.enabled:
                    tracer.add_span(now, now, "wire.n0-n1", "delivered")
        """) == []

    def test_and_guard_and_count_pass(self):
        # `x and tracer.enabled and tracer.add_span(...)` guards; count()
        # is always on and needs no guard.
        assert codes("""
            def deliver(self, tracer, ok):
                ok and tracer.enabled and tracer.add_span(0, 1, "u", "k")
                tracer.count("wire.packets")
        """) == []

    def test_tracer_definition_module_exempt(self):
        assert codes("""
            def add_span(self, tracer):
                tracer.add_span(0.0, 1.0, "u", "self-test")
        """, relpath="sim/trace.py") == []


# ----------------------------------------------------------------------
# SL007 — timing-constant hygiene
# ----------------------------------------------------------------------
class TestTimingLiterals:
    def test_inline_delay_yield_flagged(self):
        assert codes("""
            def inject(self):
                yield 0.5
        """, relpath="myrinet/fixture.py") == ["SL007"]

    def test_inline_cpu_task_cost_flagged(self):
        assert codes("""
            def inject(self, nic):
                yield from nic.cpu_task(1.5, "inject")
        """, relpath="myrinet/fixture.py") == ["SL007"]

    def test_inline_size_kwarg_flagged(self):
        assert codes("""
            def send(self, fabric, Packet):
                fabric.transmit(Packet(0, 1, "data", size_bytes=64))
        """, relpath="myrinet/fixture.py") == ["SL007"]

    def test_named_constants_pass(self):
        assert codes("""
            def inject(self, nic, params):
                yield params.t_inject
                yield from nic.cpu_task(params.t_fill, "fill")
                yield 0
        """, relpath="myrinet/fixture.py") == []

    def test_params_module_exempt(self):
        assert codes("""
            def default_budget():
                yield 0.5
        """, relpath="myrinet/params.py") == []

    def test_sim_scope_without_timing_scope_exempt(self):
        assert codes("""
            def tick(self):
                yield 0.5
        """, relpath="topology/fixture.py") == []


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
class TestSuppression:
    SOURCE = """
        import random
        def jitter(self):
            return random.random()  {comment}
    """

    def test_matching_code_suppressed(self):
        src = self.SOURCE.format(comment="# simlint: disable=SL003")
        assert codes(src) == []

    def test_non_matching_code_not_suppressed(self):
        src = self.SOURCE.format(comment="# simlint: disable=SL002")
        assert codes(src) == ["SL003"]

    def test_blanket_disable_suppresses_everything(self):
        src = self.SOURCE.format(comment="# simlint: disable")
        assert codes(src) == []

    def test_suppression_is_line_scoped(self):
        assert codes("""
            import random  # simlint: disable=SL003
            def jitter(self):
                return random.random()
        """) == ["SL003"]


# ----------------------------------------------------------------------
# Repo-wide acceptance: the simulator itself lints clean, honestly.
# ----------------------------------------------------------------------
def test_repro_package_lints_clean():
    assert collect_static_findings() == []


def test_repro_package_uses_no_suppressions():
    # Violations were fixed, not silenced: no suppression comment may
    # appear anywhere in the simulator sources (the simlint package
    # itself documents the syntax and is exempt).
    root = default_root()
    offenders = []
    scanned = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("tools/simlint/"):
            continue
        scanned.append(rel)
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if _SUPPRESS_RE.search(line):
                offenders.append(f"{rel}:{lineno}")
    assert offenders == []
    # The chaos runner and degradation report are simulator sources too
    # — guard against a future carve-out quietly exempting them.
    assert "tools/chaos.py" in scanned
    assert "experiments/chaos.py" in scanned


def test_every_static_code_has_a_registry_entry():
    assert set(STATIC_RULES) == {f"SL{i:03d}" for i in range(1, 8)}


# ----------------------------------------------------------------------
# Exit codes (library level + CLI e2e)
# ----------------------------------------------------------------------
CLEAN_MODULE = textwrap.dedent("""
    def proc(self, params):
        yield params.t_step_us
""")

DIRTY_MODULE = textwrap.dedent("""
    import random
    def jitter(self):
        return random.random()
""")


def test_run_lint_clean_tree_exits_zero(tmp_path):
    (tmp_path / "myrinet").mkdir()
    (tmp_path / "myrinet" / "clean.py").write_text(CLEAN_MODULE)
    assert run_lint(root=tmp_path) == EXIT_CLEAN
    assert EXIT_CLEAN == 0


def test_run_lint_findings_exit_one(tmp_path):
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "bad.py").write_text(DIRTY_MODULE)
    lines = []
    assert run_lint(root=tmp_path, emit=lines.append) == EXIT_FINDINGS
    assert EXIT_FINDINGS == 1
    report = "\n".join(lines)
    assert "SL003" in report and "sim/bad.py:4" in report

def test_run_lint_missing_path_exits_two(tmp_path):
    assert run_lint(root=tmp_path / "nope") == EXIT_INTERNAL
    assert EXIT_INTERNAL == 2


def test_run_lint_syntax_error_exits_two(tmp_path):
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "broken.py").write_text("def oops(:\n")
    lines = []
    assert run_lint(root=tmp_path, emit=lines.append) == EXIT_INTERNAL
    assert any("internal error" in line for line in lines)


def test_cli_lint_end_to_end(tmp_path, capsys):
    from repro.cli import main

    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "bad.py").write_text(DIRTY_MODULE)
    assert main(["lint", "--path", str(tmp_path)]) == 1
    assert "SL003" in capsys.readouterr().out

    assert main(["lint", "--path", str(tmp_path / "missing")]) == 2
    capsys.readouterr()

    (tmp_path / "sim" / "bad.py").write_text(CLEAN_MODULE)
    assert main(["lint", "--path", str(tmp_path)]) == 0
