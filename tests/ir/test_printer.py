"""IR pretty-printer golden checks."""

from repro.cli import main
from repro.frontend import compile_source
from repro.ir import print_function, print_module


def test_function_rendering_contains_blocks_and_instructions():
    module = compile_source(
        "func main() { var x: int = 3; print(x); }"
    )
    text = print_function(module.function("main"))
    assert text.splitlines()[0].startswith("func @main(")
    assert "entry:" in text
    assert "alloca int ; x" in text
    assert "store 3," in text
    assert text.rstrip().endswith("}")


def test_module_rendering_lists_globals():
    module = compile_source(
        "global g: int = 4;\nglobal a: float[3];\nfunc main() { }"
    )
    text = print_module(module)
    assert "global @g: int = 4" in text
    assert "global @a: [3 x float]" in text


def test_loop_metadata_rendered():
    module = compile_source("func main() { for i in 0..5 { } }")
    text = print_function(module.function("main"))
    assert "; loop for.header:" in text
    assert "upper=5" in text


def test_annotations_rendered():
    module = compile_source(
        "func main() { pragma omp parallel\n{ print(1); } }"
    )
    text = print_function(module.function("main"))
    assert "; region omp0: omp parallel" in text


def test_signature_with_params():
    module = compile_source("func f(x: int, a: int[2]) { }\nfunc main() { }")
    text = print_function(module.function("f"))
    assert "%x: int" in text
    assert "%a: [2 x int]*" in text


def test_dump_returns_text(capsys, tmp_path):
    source = "func main() { var x: int = 2; print(x * 3); }"
    path = tmp_path / "dump.mop"
    path.write_text(source)
    assert main(["compile", str(path), "--ir"]) == 0
    captured = capsys.readouterr()
    text = print_module(compile_source(source, module_name="dump"))
    assert captured.out == text + "\n"
    assert "functions" in captured.err  # the summary moves off stdout
