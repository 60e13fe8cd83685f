"""MiniOMP parser: AST shapes, pragma parsing and the nesting limit."""

import re

import pytest

from repro import cli
from repro.frontend import ast, compile_source, parse_source
from repro.util.errors import FrontendError


def parse_main_body(body):
    program = parse_source("func main() {\n" + body + "\n}")
    return program.functions[0].body.statements


class TestDeclarations:
    def test_global_with_array_type(self):
        program = parse_source("global a: int[4][5];")
        decl = program.globals[0]
        assert decl.name == "a"
        assert decl.type.base == "int"
        assert decl.type.dims == [4, 5]

    def test_function_signature(self):
        program = parse_source(
            "func f(x: int, a: float[3]) -> float { return 1.0; }"
        )
        func = program.functions[0]
        assert [p.name for p in func.params] == ["x", "a"]
        assert func.return_type.base == "float"

    def test_default_return_type_is_void(self):
        program = parse_source("func f() { }")
        assert program.functions[0].return_type.base == "void"

    def test_threadprivate_pragma_marks_global(self):
        program = parse_source(
            "global t: int[8];\npragma omp threadprivate(t)\nfunc main() { }"
        )
        assert program.globals[0].threadprivate


class TestStatements:
    def test_for_with_step(self):
        (stmt,) = parse_main_body("for i in 0..10 step 2 { }")
        assert isinstance(stmt, ast.For)
        assert stmt.var == "i"
        assert isinstance(stmt.step, ast.IntLit)

    def test_else_if_chains(self):
        (stmt,) = parse_main_body(
            "if (1 < 2) { } else if (2 < 3) { } else { }"
        )
        assert isinstance(stmt, ast.If)
        nested = stmt.else_body.statements[0]
        assert isinstance(nested, ast.If)
        assert nested.else_body is not None

    def test_while(self):
        (stmt,) = parse_main_body("while (true) { }")
        assert isinstance(stmt, ast.While)

    def test_assignment_to_element(self):
        decl, assign = parse_main_body("var a: int[3];\na[1] = 5;")
        assert isinstance(assign, ast.Assign)
        assert isinstance(assign.target, ast.Index)

    def test_call_statement(self):
        program = parse_source(
            "func g() { }\nfunc main() { g(); }"
        )
        stmt = program.functions[1].body.statements[0]
        assert isinstance(stmt, ast.ExprStmt)

    def test_assignment_to_call_rejected(self):
        with pytest.raises(FrontendError):
            parse_main_body("f() = 3;")

    def test_print_with_label(self):
        (stmt,) = parse_main_body('print("x =", 1, 2);')
        assert isinstance(stmt, ast.PrintStmt)
        assert len(stmt.args) == 3


class TestExpressions:
    def test_precedence_mul_over_add(self):
        (stmt,) = parse_main_body("var x: int = 1 + 2 * 3;")
        expr = stmt.init
        assert isinstance(expr, ast.BinExpr) and expr.op == "+"
        assert isinstance(expr.rhs, ast.BinExpr) and expr.rhs.op == "*"

    def test_parentheses_override(self):
        (stmt,) = parse_main_body("var x: int = (1 + 2) * 3;")
        expr = stmt.init
        assert expr.op == "*"

    def test_logical_precedence(self):
        (stmt,) = parse_main_body("var x: bool = 1 < 2 && 3 < 4 || false;")
        expr = stmt.init
        assert expr.op == "||"
        assert expr.lhs.op == "&&"

    def test_unary_chains(self):
        (stmt,) = parse_main_body("var x: int = - - 3;")
        assert isinstance(stmt.init, ast.UnExpr)
        assert isinstance(stmt.init.operand, ast.UnExpr)

    def test_index_chains(self):
        decl, stmt = parse_main_body(
            "var a: int[2][2];\nvar x: int = a[0][1];"
        )
        index = stmt.init
        assert isinstance(index, ast.Index)
        assert isinstance(index.base, ast.Index)

    def test_cast_syntax(self):
        (stmt,) = parse_main_body("var x: int = int(3.5);")
        assert isinstance(stmt.init, ast.CallExpr)
        assert stmt.init.name == "int"


class TestPragmas:
    def test_parallel_for_merges_to_one_kind(self):
        (stmt,) = parse_main_body("pragma omp parallel for\nfor i in 0..4 { }")
        assert stmt.pragmas[0].kind == "parallel_for"

    def test_reduction_clause_parsed(self):
        body = parse_main_body(
            "var s: int = 0;\npragma omp for reduction(+: s) private(s)\n"
            "for i in 0..4 { }"
        )
        directive = body[1].pragmas[0]
        assert directive.clauses.reductions == [("+", "s")]
        assert directive.clauses.private == ["s"]

    def test_schedule_clause(self):
        body = parse_main_body(
            "pragma omp for schedule(static, 8)\nfor i in 0..4 { }"
        )
        assert body[0].pragmas[0].clauses.schedule == ("static", 8)

    def test_named_critical(self):
        body = parse_main_body(
            "pragma omp critical(lockname)\n{ }"
        )
        assert body[0].pragmas[0].clauses.critical_name == "lockname"

    def test_barrier_is_standalone(self):
        body = parse_main_body("pragma omp barrier\nvar x: int = 1;")
        assert isinstance(body[0], ast.StandaloneDirective)
        assert body[0].directive.kind == "barrier"
        assert isinstance(body[1], ast.VarDecl)

    def test_stacked_pragmas(self):
        body = parse_main_body(
            "pragma omp parallel\npragma omp for\nfor i in 0..4 { }"
        )
        kinds = [p.kind for p in body[0].pragmas]
        assert kinds == ["parallel", "for"]

    def test_depend_clause(self):
        body = parse_main_body(
            "var x: int = 0;\npragma omp task depend(out: x)\n{ }"
        )
        assert body[1].pragmas[0].clauses.depends == [("out", "x")]

    def test_unknown_reduction_op_rejected(self):
        with pytest.raises(FrontendError):
            parse_main_body(
                "var s: int = 0;\npragma omp for reduction(@: s)\n"
                "for i in 0..4 { }"
            )


class TestCilk:
    def test_spawn_statement(self):
        program = parse_source(
            "func w(x: int) -> int { return x; }\n"
            "func main() { var r: int = 0; spawn r = w(1); sync; }"
        )
        body = program.functions[1].body.statements
        assert isinstance(body[1], ast.SpawnStmt)
        assert body[1].call.name == "w"
        assert isinstance(body[2], ast.StandaloneDirective)
        assert body[2].directive.kind == "cilk_sync"

    def test_cilk_for_attaches_directive(self):
        (stmt,) = parse_main_body("cilk_for i in 0..4 { }")
        assert stmt.pragmas[0].kind == "cilk_for"

    def test_reducer_declaration(self):
        (stmt,) = parse_main_body("var s: int reducer(+) = 0;")
        assert stmt.reducer_op == "+"

    def test_cilk_scope(self):
        (stmt,) = parse_main_body("cilk_scope { var x: int = 1; }")
        assert stmt.pragmas[0].kind == "cilk_scope"



def _pins(*cases):
    return [pytest.param(source, message, id=name)
            for name, source, message in cases]


class TestErrors:
    """Every parser error site, pinned to the exact located message."""

    @pytest.mark.parametrize("source, message", _pins(
        ("missing-semi", "func main() {\nvar x: int = 1\n}",
         "3:1: expected SEMI, found RBRACE ('}')"),
        ("missing-rparen", "func main() {\nprint(1;\n}",
         "2:8: expected RPAREN, found SEMI (';')"),
        ("missing-rbrace", "func main() {\nvar x: int = 1;",
         "1:0: unterminated block"),
        ("missing-rbracket", "global a: int[4;",
         "1:16: expected RBRACKET, found SEMI (';')"),
        ("bad-type", "global a: string;",
         "1:0: expected a type, found 'string'"),
        ("top-level-stray", "var x: int;",
         "1:1: expected global/func declaration, found 'var'"),
        ("statement-start", "func main() {\n  ;\n}",
         "2:3: unexpected token ';' at statement start"),
        ("expression-stray", "func main() {\nvar x: int = 1 + ;\n}",
         "2:18: unexpected token ';' in expression"),
        ("reducer-op", "func main() {\nvar s: int reducer(/);\n}",
         "2:0: unknown reducer operator '/'"),
        ("spawn-not-call", "func main() {\nvar x: int;\nspawn x;\n}",
         "3:0: spawn requires a call"),
        ("assign-to-call",
         "func f() -> int { return 1; }\nfunc main() {\nf() = 1;\n}",
         "3:0: left side of assignment must be a variable or element"),
        ("expression-statement", "func main() {\nvar x: int;\nx[0];\n}",
         "3:0: expression statement must be a call"),
    ))
    def test_statement_errors(self, source, message):
        with pytest.raises(FrontendError, match=f"^{re.escape(message)}$"):
            parse_source(source)

    @pytest.mark.parametrize("source, message", _pins(
        ("top-level-pragma", "pragma omp barrier\nfunc main() { }",
         "1:0: only threadprivate pragmas are allowed at top level, "
         "found 'barrier'"),
        ("threadprivate-undeclared",
         "pragma omp threadprivate(nope)\nfunc main() { }",
         "threadprivate names not declared as globals: ['nope']"),
        ("threadprivate-list",
         "global t: int;\npragma omp threadprivate(t,)\nfunc main() { }",
         "2:0: expected variable in pragma, found ')'"),
        ("threadprivate-no-list",
         "global t: int;\npragma omp threadprivate\nfunc main() { }",
         "2:0: expected LPAREN in pragma, found None"),
        ("trailing-token", "func main() {\npragma omp parallel bogus\n{ }\n}",
         "2:0: unexpected token 'bogus' in pragma"),
        ("missing-lparen",
         "func main() {\npragma omp parallel private x\n{ }\n}",
         "2:0: expected LPAREN in pragma, found 'x'"),
        ("missing-rparen",
         "func main() {\nvar x: int;\npragma omp parallel private(x\n"
         "{ }\n}",
         "3:0: expected RPAREN in pragma, found None"),
        ("chunk-not-int",
         "func main() {\npragma omp for schedule(static, c)\n"
         "for i in 0..4 { }\n}",
         "2:0: expected INT in pragma, found 'c'"),
        ("reduction-op",
         "func main() {\nvar s: int;\n"
         "pragma omp parallel for reduction(/: s)\nfor i in 0..4 { }\n}",
         "3:0: unknown reduction operator '/'"),
        ("critical-no-name", "func main() {\npragma omp critical(\n{ }\n}",
         "2:0: expected critical name in pragma"),
        ("directive-name", "func main() {\npragma omp (\n{ }\n}",
         "2:0: expected directive name in pragma, found '('"),
        ("unknown-directive",
         "func main() {\npragma omp frobnicate\n{ }\n}",
         "2:0: unknown directive kind 'frobnicate'"),
    ))
    def test_pragma_errors(self, source, message):
        with pytest.raises(FrontendError, match=f"^{re.escape(message)}$"):
            parse_source(source)


def _nested_ifs(depth):
    return (
        "global g: int[2];\nfunc main() {\n"
        + "if (g[0] < 1) {\n" * depth + "g[1] = 1;\n" + "}\n" * depth + "}\n"
    )


#: Source nested past the limit, one input per recursive descent that
#: used to exhaust Python's stack: the operands of one long chain (the
#: frontend's lowering), parentheses (the expression parser), and blocks
#: (the statement parser).
TOO_DEEP = _pins(
    ("chain-800", "global a: int[8];\nfunc main() {\nfor i in 0..8 {\na["
     + " + ".join(["i"] * 800) + "] = 1;\n}\n}\n", 4),
    ("parens-1200", "func main() {\nvar x: int = " + "(" * 1200 + "1"
     + ")" * 1200 + ";\n}\n", 2),
    ("ifs-400", _nested_ifs(400), 128),
)


class TestNesting:
    @pytest.mark.parametrize("source, line", TOO_DEEP)
    def test_too_deep_is_a_located_frontend_error(self, source, line):
        with pytest.raises(FrontendError, match="nested deeper than 128 "
                           "levels") as caught:
            compile_source(source)
        assert caught.value.line == line

    def test_the_cli_prints_the_located_error(self, tmp_path, capsys):
        path = tmp_path / "chain.mop"
        path.write_text(TOO_DEEP[0].values[0])
        assert cli.main(["compile", str(path)]) != 0
        error = capsys.readouterr().err
        assert re.match(r"error: 4:\d+: nested deeper", error)

    def test_nesting_below_the_limit_compiles(self):
        """A hundred nested ifs, and a chain of a hundred terms."""
        compile_source(_nested_ifs(100))
        compile_source(
            "global a: int[8];\nfunc main() {\nfor i in 0..8 {\na[("
            + " + ".join(["i"] * 100) + ") % 8] = 1;\n}\n}\n"
        )
