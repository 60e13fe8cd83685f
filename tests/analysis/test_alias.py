"""Alias analysis: provenance, object identity, call summaries."""

from repro.analysis import AliasAnalysis, CONSOLE
from repro.frontend import compile_source
from repro.ir.instructions import Load, Store


def test_distinct_objects_never_alias():
    module = compile_source(
        "global a: int[4];\nglobal b: int[4];\n"
        "func main() { a[0] = 1; b[0] = 2; print(a[0]); }"
    )
    aa = AliasAnalysis(module)
    function = module.function("main")
    stores = [i for i in function.instructions() if isinstance(i, Store)]
    obj_a = aa.base_object(stores[0].pointer, function)
    obj_b = aa.base_object(stores[1].pointer, function)
    assert obj_a != obj_b


def test_gep_chain_resolves_to_base(self=None):
    module = compile_source(
        "global m: int[3][3];\nfunc main() { m[1][2] = 5; print(m[1][2]); }"
    )
    aa = AliasAnalysis(module)
    function = module.function("main")
    store = next(i for i in function.instructions() if isinstance(i, Store))
    load = next(
        i
        for i in function.instructions()
        if isinstance(i, Load) and i.type.is_scalar()
    )
    assert aa.base_object(store.pointer, function) == aa.base_object(
        load.pointer, function
    )


def test_object_identity_stable_across_analysis_instances():
    module = compile_source("global g: int;\nfunc main() { g = 1; print(g); }")
    function = module.function("main")
    store = next(i for i in function.instructions() if isinstance(i, Store))
    obj1 = AliasAnalysis(module).base_object(store.pointer, function)
    obj2 = AliasAnalysis(module).base_object(store.pointer, function)
    assert obj1 == obj2
    assert hash(obj1) == hash(obj2)


def test_console_objects_compare_equal():
    from repro.analysis.alias import ConsoleObject

    assert ConsoleObject() == CONSOLE


def test_scalar_classification():
    module = compile_source(
        "global s: int;\nglobal a: int[2];\n"
        "func main() { s = 1; a[0] = 2; print(s); }"
    )
    aa = AliasAnalysis(module)
    assert aa.object_for_global(module.globals["s"]).is_scalar()
    assert not aa.object_for_global(module.globals["a"]).is_scalar()


class TestCallSummaries:
    def test_callee_effects_visible_at_call_site(self):
        module = compile_source(
            "global g: int;\n"
            "func bump() { g = g + 1; }\n"
            "func main() { bump(); print(g); }"
        )
        aa = AliasAnalysis(module)
        summary = aa._summaries["bump"]
        assert ("global", "g") in summary["writes"]
        assert ("global", "g") in summary["reads"]

    def test_argument_effects_translate_through_call(self):
        module = compile_source(
            "func fill(a: int[4]) { a[0] = 7; }\n"
            "func main() { var v: int[4]; fill(v); print(v[0]); }"
        )
        aa = AliasAnalysis(module)
        function = module.function("main")
        call = next(
            i for i in function.instructions() if i.opcode == "call"
        )
        reads, writes = aa.call_effects(call, function)
        names = {getattr(o, "display_name", "") for o in writes}
        assert "v" in names

    def test_an_argument_passed_on_is_the_callers_argument_object(self):
        """Inside ``pass_on``, the callee's writes land on ``pass_on``'s
        own parameter: one object per argument, which another analysis
        of the module's equals."""
        module = compile_source(
            "func fill(a: int[4]) { a[0] = 7; }\n"
            "func pass_on(b: int[4]) { fill(b); }\n"
            "func main() { var v: int[4]; pass_on(v); print(v[0]); }"
        )
        aa = AliasAnalysis(module)
        function = module.function("pass_on")
        call = next(
            i for i in function.instructions() if i.opcode == "call"
        )
        _reads, writes = aa.call_effects(call, function)
        (parameter,) = function.args
        assert writes == {aa.object_for_argument(parameter)}
        assert writes == {AliasAnalysis(module).object_for_argument(parameter)}
        (written,) = writes
        assert written.display_name == "%b"
        assert not written.is_scalar()

    def test_recursive_summaries_converge(self):
        module = compile_source(
            "global acc: int;\n"
            "func down(n: int) {\n"
            "  acc = acc + n;\n"
            "  if (n > 0) { down(n - 1); }\n"
            "}\n"
            "func main() { down(3); print(acc); }"
        )
        aa = AliasAnalysis(module)
        summary = aa._summaries["down"]
        assert ("global", "acc") in summary["writes"]

    def test_print_summarized_as_console_write(self):
        module = compile_source(
            "func noisy() { print(1); }\nfunc main() { noisy(); }"
        )
        aa = AliasAnalysis(module)
        assert ("console",) in aa._summaries["noisy"]["writes"]
