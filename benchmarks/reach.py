"""What no entry point reaches: every ``src/repro`` function never entered.

    python3 benchmarks/reach.py    # the count, then every function left

Traces ``call`` events (``sys.settrace`` / ``threading.settrace``) over
the entry set, each part in its own child with ``PYTHONHASHSEED=0`` and
no runtime knobs: the CLI over NAS8 and ``examples/histogram.mop``
(``compile``, ``plan -O0..3``, ``run --plan PS-PDG -O0..3 --verify`` on
the three backends, ``--no-compile``, the source/OpenMP/PDG/J&K plans),
``compile --ir --pspdg``, CI's CLI smoke extras, the six examples; and
each ``benchmarks/e2e`` workload ``--quick`` (``worker.py`` pins its
process to one core, so one workload per child).

A function counts once, at its outermost unreached level; a
``__repr__`` never counts.  Every other unreached function must be named
in ``ALLOWED`` under what reaches it — a knob, an oracle, a paper
section, a language feature, code that runs in a pool child after
``fork`` (no trace comes home) — and a test that does.  A name whose
every function the entry set now enters is *stale* and is listed after
the count, so an entry cannot outlive its reason.  Report-only.
"""

import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
E2E = ROOT / "benchmarks" / "e2e"
NAS8 = ("IS", "EP", "CG", "MG", "FT", "BT", "SP", "LU")
EXAMPLES = ("quickstart", "backends_demo", "cilk_fib", "is_calibration",
            "nas_report", "necessity_gallery")

#: Why the entry set never enters them -> ``module: qualname ...`` lines
#: (``*`` is the whole module, a class name covers its methods).
ALLOWED = {
    "VERIFY_COMPILED=1, the compiled-vs-interpreted oracle (tests/"
    "integration/test_compiled_conformance.py, tests/codegen/"
    "test_compiled_critical.py, tests/emulator/test_math_errors.py)": """
        repro.codegen.runtime: _differential _verified_sequence
        repro.codegen.profile: _verified
        repro.codegen.lower: CompiledChunk.label
        repro.codegen.seq: CompiledSequence.label
        repro.runtime.executor: ParallelInterpreter._verify_safe
        repro.runtime.backends: SerialBackend._run_jobs""",
    "REPRO_FAULTS chaos, fired in pool children too (tests/runtime/"
    "test_fault_tolerance.py)": """
        repro.runtime.faults: *
        repro.runtime.payload: WorkerPayload.corrupted""",
    "pool-child code, entered after fork, leaves with ROADMAP 7(b) "
    "(tests/runtime/test_payload_codec.py, tests/runtime/test_pool.py)": """
        repro.runtime.backends: _pool_child _pool_chunk_entry _forget_team
        repro.runtime.backends: _NullLocks
        repro.runtime.payload: _RegionUnpickler _unpack_iterations
        repro.runtime.payload: install_module _loop_resolver decode_payload
        repro.runtime.payload: diff_table""",
    "the pool's teardown: at exit and when a dispatch fails (tests/runtime/"
    "test_pool.py::TestPoolLifecycle::test_reset_pool_starts_with_empty_"
    "ledgers)": """
        repro.runtime.backends: _ChunkPool.kill _reset_chunk_pool""",
    "the interpreter's interning profiler, the profile stage's refusal "
    "fallback "
    "(tests/codegen/test_structured_lowering.py::test_a_refused_loop_is_"
    "reported_with_its_instruction, tests/emulator/test_profile.py, "
    "tests/emulator/test_interp.py::TestProfiling)": """
        repro.emulator.profile: *
        repro.codegen.profile: _interpret
        repro.emulator.interp: Interpreter._track_loops
        repro.emulator.interp: Interpreter._account""",
    "a CFG the structured walk refuses runs interpreted and says why "
    "(tests/codegen/test_structured_lowering.py::test_a_cfg_the_walk_"
    "refuses_runs_interpreted_and_says_why, ::test_a_loop_left_from_its_"
    "body_is_interpreted_and_says_why)": """
        repro.codegen.lower: _refused _Lowering._emit_tail
        repro.codegen.seq: _SequenceLowering._emit_tail
        repro.runtime.executor: ParallelInterpreter._interpret_function""",
    "a slice lane at an offset from its base, dense e2e programs only "
    "(tests/codegen/test_structured_lowering.py::test_the_tier_keeps_"
    "steps_exact_and_the_armed_oracle_quiet)": """
        repro.codegen.lower: _Lowering._spelled""",
    "a return inside a parallelized loop body is an error (tests/runtime/"
    "test_executor.py::TestValidation::test_a_return_inside_a_parallel_"
    "loop_is_an_error)": """
        repro.runtime.backends: _left_body""",
    "unary operators and math intrinsics (tests/emulator/test_interp.py::"
    "TestArithmetic, tests/codegen/test_codegen.py::test_float_helpers_"
    "route_through_guarded_math, ::test_guarded_math_maps_value_errors, "
    "tests/ir/test_parser_roundtrip.py)": """
        repro.frontend.lower: Lowerer._lower_unary
        repro.ir.builder: IRBuilder.unop
        repro.ir.instructions: UnaryOp
        repro.codegen.lower: _Lowering._lower_unop
        repro.emulator.interp: _not math_error""",
    "integer pow (tests/emulator/test_decode.py::test_every_binary_op)": """
        repro.emulator.interp: _int_pow""",
    "constant global initializers (tests/emulator/test_interp.py::"
    "TestMemory::test_global_initializer)": """
        repro.frontend.lower: Lowerer._constant_fold""",
    "a read of an instruction that never ran is an error (tests/emulator/"
    "test_decode.py::test_select_evaluates_only_the_chosen_arm)": """
        repro.emulator.interp: _unexecuted""",
    "a register read before its definition in a compiled sequence (tests/"
    "codegen/test_codegen.py::test_unbound_register_maps_unboundlocal_to_"
    "interpreter_error)": """
        repro.codegen.runtime: unbound_register""",
    "calls between functions (tests/analysis/test_alias.py::"
    "TestCallSummaries, tests/emulator/test_decode.py)": """
        repro.emulator.interp: _decode_call
        repro.analysis.alias: AliasAnalysis._translate_key
        repro.analysis.alias: AliasAnalysis._concretize_key""",
    "array parameters (tests/analysis/test_alias.py::TestCallSummaries::"
    "test_an_argument_passed_on_is_the_callers_argument_object)": """
        repro.analysis.alias: ArgumentObject
        repro.analysis.alias: AliasAnalysis.object_for_argument""",
    "the IR printer over calls and parameters (tests/integration/"
    "test_pipeline.py::test_pretty_printer_covers_annotations, tests/ir/"
    "test_parser_roundtrip.py)": """
        repro.ir.instructions: Call.describe
        repro.ir.values: Argument.short""",
    "value semantics of types and the console object (tests/ir/"
    "test_types.py::test_types_are_hashable, tests/analysis/"
    "test_alias.py::test_console_objects_compare_equal)": """
        repro.ir.types: Type.__hash__ ArrayType.__eq__ ArrayType.__hash__
        repro.ir.types: PointerType.__hash__
        repro.analysis.alias: ConsoleObject.__eq__""",
    "bool, void and pointer types (tests/ir/test_types.py::"
    "test_scalar_slots, ::test_scalar_predicates, ::test_pointer_slots)": """
        repro.ir.types: BoolType.slots BoolType.is_scalar VoidType.slots
        repro.ir.types: PointerType.slots""",
    "print inside a reduction loop: the console object is not scalar "
    "(tests/analysis/test_reductions_privatization.py::TestReductions::"
    "test_extra_use_defeats_recognition)": """
        repro.analysis.alias: MemoryObject.is_scalar""",
    "task depend clauses and firstprivate selectors, Section 3 (tests/core/"
    "test_pspdg_builder.py::TestTasks, ::TestSelectors)": """
        repro.core.builder: PSPDGBuilder._tasks_depend
        repro.core.builder: PSPDGBuilder._selector_on_livein""",
    "the sequential reference run, benchmarks/e2e/catalogue.py "
    "--regen-expected (tests/emulator/test_interp.py)": """
        repro.emulator.interp: run_module run_source
        repro.emulator.interp: Interpreter._maybe_run_parallel_loop""",
    "benchmarks: e2e layers.py --trace 1, bench_session_cache.py, "
    "bench_pspdg_construction.py (tests/pipeline/test_session.py)": """
        repro.pipeline.diagnostics: Diagnostics.runs
        repro.session: Session.from_module""",
}


def allowed_names():
    """Every ``(module, qualname)`` that ``ALLOWED`` names."""
    for names in ALLOWED.values():
        for line in names.strip().splitlines():
            module, qualnames = line.split(":")
            for qualname in qualnames.split():
                yield module.strip(), qualname


def functions():
    """Every function under ``src/repro``: (file, first line) -> record."""
    found = {}

    def walk(node, module, path, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, path, prefix + child.name + ".", outer)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                key = (str(path), first)
                found[key] = {
                    "module": module, "qualname": prefix + child.name,
                    "lines": child.end_lineno - first + 1, "outer": outer,
                }
                walk(child, module, path, prefix + child.name + ".", key)

    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        walk(ast.parse(path.read_text()), module, path, "", None)
    return found


def _allowed(record, names):
    name = record["qualname"]
    return any(
        module == record["module"]
        and (qualname in ("*", name) or name.startswith(qualname + "."))
        for module, qualname in names
    )


def _cli(*argv):
    from repro.cli import main

    try:
        main(list(argv))
    except SystemExit:
        pass


def entry_set(scratch):
    """The CLI and the examples, as CI and a reader drive them."""
    for program in NAS8 + ("examples/histogram.mop",):
        _cli("compile", program)
        for level in ("-O0", "-O1", "-O2", "-O3"):
            _cli("plan", program, level)
            for backend in ("simulated", "threads", "processes"):
                _cli("run", program, "--plan", "PS-PDG", level, "--verify",
                     "--backend", backend)
        for backend in ("simulated", "threads"):
            _cli("run", program, "--plan", "PS-PDG", "--no-compile",
                 "--verify", "--backend", backend)
        for plan in ("source", "OpenMP", "PDG", "J&K"):
            _cli("run", program, "--plan", plan, "--verify")
    profile = str(scratch / "profile.json")
    bad = scratch / "bad.mop"
    bad.write_text("func main() { var x: float = sqrt(); }\n")
    for argv in (
        ("compile", "examples/histogram.mop", "--ir", "--pspdg"),
        ("plan", "CG", "--diagnostics"),
        ("run", "IS", "--plan", "PS-PDG", "--backend", "processes",
         "--schedule", "dynamic", "--verify"),
        ("run", "EP", "--plan", "PS-PDG", "--backend", "threads",
         "--schedule", "guided", "--workers", "8", "--verify",
         "--diagnostics"),
        ("run", "CG", "--plan", "PS-PDG", "-O2", "--backend", "processes",
         "--calibrate", "--profile", profile, "--verify"),
        ("profile", "--profile", profile),
        ("report", "IS", "CG", "LU", "-O2", "--diagnostics"),
        ("knobs",), ("compile", str(bad)),
        ("run", "EP", "--backend", "threads", "--faults", "bogus"),
    ):
        _cli(*argv)
    for name in EXAMPLES:
        try:
            runpy.run_path(str(ROOT / "examples" / f"{name}.py"),
                           run_name="__main__")
        except SystemExit:
            pass


def child(part, out):
    """Run one part traced; write the code objects it entered to ``out``."""
    entered = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)

    threading.settrace(trace)
    sys.settrace(trace)
    sys.stdout = sys.stderr = open(os.devnull, "w")
    try:
        with tempfile.TemporaryDirectory() as scratch:
            if part == "entry":
                entry_set(Path(scratch))
            else:
                sys.path.insert(0, str(E2E))
                import worker

                worker.main(["--workload", part, "--seconds", "0", "--quick"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    Path(out).write_text(json.dumps(
        [[code.co_filename, code.co_firstlineno] for code in entered]
    ))


def reached():
    """(file, first line) of every code object some part entered."""
    sys.path[:0] = [str(SRC), str(E2E)]
    import benchenv
    from workloads import WORKLOADS

    keys = set()
    with tempfile.TemporaryDirectory() as scratch:
        for part in ("entry", *sorted(WORKLOADS)):
            out = Path(scratch) / f"{part}.json"
            subprocess.run(
                [sys.executable, __file__, "--child", part, str(out)],
                env=benchenv.scrubbed_env(os.environ), cwd=ROOT, check=True,
            )
            keys.update(tuple(key) for key in json.loads(out.read_text()))
    return keys


def main(argv):
    if argv[:1] == ["--child"]:
        return child(*argv[1:3])
    found, entered = functions(), reached()
    unreached = [
        record for key, record in sorted(found.items())
        if key not in entered
        and record["qualname"].split(".")[-1] != "__repr__"
        and (record["outer"] is None or record["outer"] in entered)
    ]
    names = list(allowed_names())
    left = [r for r in unreached if not _allowed(r, names)]
    allowed = [r for r in unreached if _allowed(r, names)]
    print(f"unreached: {len(left)} functions, "
          f"{sum(r['lines'] for r in left)} lines "
          f"({len(allowed)} allow-listed, "
          f"{sum(r['lines'] for r in allowed)} lines)")
    for record in left:
        print(f"  {record['module']}:{record['qualname']} "
              f"({record['lines']} lines)")
    missed = [record for key, record in found.items() if key not in entered]
    stale = [
        name for name in names
        if not any(_allowed(record, [name]) for record in missed)
    ]
    print(f"stale: {len(stale)}")
    for module, qualname in stale:
        print(f"  {module}:{qualname} (reached)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
