"""Memory dependence analysis over whole functions."""

from repro.analysis.record import FunctionAnalyses
from repro.frontend import compile_source


def deps_for(source):
    module = compile_source(source)
    function = module.function("main")
    analyses = FunctionAnalyses(function, module)
    return function, analyses.dependences, analyses.loops


def named(deps, kind=None, display=None):
    out = []
    for d in deps:
        if kind is not None and d.kind != kind:
            continue
        name = getattr(d.obj, "display_name", "")
        if display is not None and name != display:
            continue
        out.append(d)
    return out


class TestScalars:
    def test_reduction_scalar_has_carried_raw_war_waw(self):
        _, deps, loops = deps_for(
            "func main() { var s: int = 0;\n"
            "for i in 0..4 { s = s + i; } print(s); }"
        )
        loop = loops[0]
        kinds = {
            d.kind
            for d in named(deps, display="s")
            if loop in d.carried_loops
        }
        assert kinds == {"RAW", "WAR", "WAW"}

    def test_liveout_raw_reaches_print(self):
        _, deps, _ = deps_for(
            "func main() { var s: int = 0;\n"
            "for i in 0..4 { s = s + i; } print(s); }"
        )
        raws = named(deps, kind="RAW", display="s")
        assert any(d.loop_independent for d in raws)


class TestArrays:
    def test_affine_same_index_not_carried(self):
        _, deps, loops = deps_for(
            "global a: int[8];\n"
            "func main() { for i in 0..8 { a[i] = a[i] + 1; } }"
        )
        loop = loops[0]
        carried = [
            d for d in named(deps, display="@a") if loop in d.carried_loops
        ]
        assert carried == []

    def test_shifted_index_carried_in_one_direction(self):
        _, deps, loops = deps_for(
            "global a: int[10];\n"
            "func main() { for i in 1..9 { a[i] = a[i - 1] + 1; } }"
        )
        loop = loops[0]
        carried = [
            d for d in named(deps, kind="RAW", display="@a")
            if loop in d.carried_loops
        ]
        assert carried, "recurrence must be loop-carried"
        # Forward direction only: the write feeds the *next* iteration.
        for d in carried:
            assert d.source.opcode == "store"

    def test_distinct_arrays_have_no_cross_dependences(self):
        _, deps, _ = deps_for(
            "global a: int[4];\nglobal b: int[4];\n"
            "func main() { for i in 0..4 { a[i] = 1; b[i] = 2; } }"
        )
        for d in deps:
            src_obj = getattr(d.obj, "display_name", "")
            assert src_obj in ("@a", "@b", "i")

    def test_indirect_index_is_conservative(self):
        _, deps, loops = deps_for(
            "global a: int[8];\nglobal k: int[8];\n"
            "func main() { for i in 0..8 { a[k[i]] = a[k[i]] + 1; } }"
        )
        loop = loops[0]
        carried = [
            d for d in named(deps, display="@a") if loop in d.carried_loops
        ]
        assert carried, "indirect updates must be assumed carried"


class TestOrdering:
    def test_sequential_loops_linked_by_intra_dependence(self):
        _, deps, _ = deps_for(
            "global a: int[4];\n"
            "func main() { for i in 0..4 { a[i] = 1; }\n"
            "for j in 0..4 { a[j] = a[j] + 1; } }"
        )
        cross = [
            d
            for d in named(deps, display="@a")
            if d.loop_independent
            and d.source.parent.name != d.destination.parent.name
        ]
        assert cross, "loop-to-loop ordering must be represented"

    def test_prints_serialize_through_console(self):
        _, deps, _ = deps_for("func main() { print(1); print(2); }")
        console = [d for d in deps if d.obj.display_name == "<console>"]
        assert any(d.kind == "WAW" for d in console)

    def test_call_dependences_via_summary(self):
        module = compile_source(
            "global g: int;\n"
            "func bump() { g = g + 1; }\n"
            "func main() { g = 1; bump(); print(g); }"
        )
        function = module.function("main")
        deps = FunctionAnalyses(function, module).dependences
        call_deps = [
            d
            for d in deps
            if d.source.opcode == "call" or d.destination.opcode == "call"
        ]
        assert any(d.kind == "RAW" for d in call_deps)


def test_each_reachability_question_is_asked_once(monkeypatch):
    # Whether a pair's blocks reach each other without the innermost
    # common loop's back edges depends on the blocks and that loop
    # alone: one CFG search per (source, target, banned edges).
    from repro.analysis import memdep
    from repro.analysis.cfg import can_reach
    from repro.workloads import build_kernel, kernel_names

    asked = []

    def recording(source, target, successors, banned_edges=frozenset()):
        asked.append((source, target, banned_edges))
        return can_reach(source, target, successors, banned_edges)

    monkeypatch.setattr(memdep, "can_reach", recording)
    for kernel in kernel_names():
        module = build_kernel(kernel)
        FunctionAnalyses(module.function("main"), module).dependences
    assert asked
    assert len(asked) == len(set(asked))


class TestOuterInductionTerms:
    NEST = (
        "global a: int[512];\n"
        "func main() {\n"
        "  for o in 0..8 {\n"
        "    for l in 0..8 {\n"
        "      for n in 0..8 {\n"
        "        a[o * 64 + l * 8 + n] = a[o * {O} + l * 8 + n] + 1;\n"
        "      }\n"
        "    }\n"
        "  }\n"
        "}"
    )

    def _carried_at_middle(self, outer_coefficient):
        _, deps, loops = deps_for(
            self.NEST.replace("{O}", str(outer_coefficient))
        )
        middle = next(loop for loop in loops if loop.depth == 1)
        return [
            d for d in named(deps, display="@a") if middle in d.carried_loops
        ]

    def test_an_equal_outer_term_cancels_at_the_middle_loop(self):
        """Each (o, l, n) touches its own slot, so nothing is carried at
        ``l``: the outer induction's equal terms cancel."""
        assert self._carried_at_middle(64) == []

    def test_an_unequal_outer_term_stays_conservative(self):
        assert self._carried_at_middle(32) != []
