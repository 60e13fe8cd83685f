"""Recursive-descent parser for MiniOMP.

MiniOMP is a small C-like language with OpenMP-style pragma lines and Cilk
keywords, rich enough to express the NAS kernel skeletons the paper
evaluates on::

    global key_buff: int[1024];

    func main() {
      var s: int = 0;
      pragma omp parallel
      {
        pragma omp for reduction(+: s) schedule(static)
        for i in 0..1024 {
          s = s + key_buff[i];
        }
        pragma omp single
        { print(s); }
      }
    }

Pragmas are line-oriented (as in C): the directive and its clauses must
stay on one line, and annotate the statement that follows.

Every token is read through one :class:`_TokenStream`.  The program is one
stream; a pragma line is parsed as a sub-stream over that line's tokens,
ending in an EOF sentinel.  Binary operators are parsed by precedence
climbing over one table, :data:`_BINARY_PRECEDENCE`.
"""

from repro.frontend import ast
from repro.frontend.directives import (
    Clauses,
    Directive,
    REDUCTION_OPS,
)
from repro.frontend.lexer import _KEYWORD_KINDS, Token, tokenize
from repro.util.errors import FrontendError

_CLAUSE_NAMES = frozenset(
    {
        "private",
        "firstprivate",
        "lastprivate",
        "shared",
        "reduction",
        "schedule",
        "nowait",
        "depend",
        "anyvalue",
        "ordered",
    }
)

#: Levels of nesting — blocks, ``else if`` arms, parentheses, unary
#: operators, each operand of a chain like ``i + i + ... + i`` — past
#: which source is a located FrontendError: the recursive passes over the
#: tree take a few Python frames per level, and 128 levels stay well
#: inside the default recursion limit of 1000.
_MAX_NESTING = 128

#: How tightly each binary operator token binds, loosest first.  Every
#: level is left-associative, and the operator is the token's text.
_BINARY_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "AMP": 3,
    "PIPE": 3,
    "CARET": 3,
    "EQ": 4,
    "NE": 4,
    "LT": 5,
    "LE": 5,
    "GT": 5,
    "GE": 5,
    "PLUS": 6,
    "MINUS": 6,
    "STAR": 7,
    "SLASH": 7,
    "PERCENT": 7,
}


class _TokenStream:
    """A cursor over a token list ending in EOF; NEWLINE tokens are skipped.

    The program is one stream, and each pragma line is read as a stream of
    its own (:meth:`rest_of_line`): its ``line`` is the pragma's, its errors
    name the pragma, and its EOF sentinel has no text.
    """

    def __init__(self, tokens, line=None):
        self._tokens = tokens
        self._pos = 0
        self.line = line

    def peek(self):
        while self._tokens[self._pos].kind == "NEWLINE":
            self._pos += 1
        return self._tokens[self._pos]

    def next(self):
        token = self.peek()
        if token.kind != "EOF":
            self._pos += 1
        return token

    def accept(self, kind):
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind):
        token = self.next()
        if token.kind == kind:
            return token
        if self.line is None:
            raise FrontendError(
                f"expected {kind}, found {token.kind} ({token.text!r})",
                token.line,
                token.column,
            )
        raise FrontendError(
            f"expected {kind} in pragma, found {token.text!r}", self.line
        )

    def word(self, what):
        """The next pragma token's text, which must be word-like: keywords
        (``for``, ``single``) are plain names inside a pragma."""
        token = self.next()
        if token.kind == "EOF":
            raise FrontendError(f"expected {what} in pragma", self.line)
        if not token.text.replace("_", "").isalnum():
            raise FrontendError(
                f"expected {what} in pragma, found {token.text!r}", self.line
            )
        return token.text

    def variables(self):
        """A pragma's ``name, ...)`` list, up to and including ``)``."""
        return self.comma_list(lambda: self.word("variable"))

    def reduction_op(self, what):
        token = self.next()
        if token.text not in REDUCTION_OPS:
            raise FrontendError(
                f"unknown {what} operator {token.text!r}",
                token.line if self.line is None else self.line,
            )
        return token.text

    def comma_list(self, item, empty_ok=False):
        """``item()`` repeated between commas, up to and including ``)``."""
        if empty_ok and self.accept("RPAREN"):
            return []
        items = [item()]
        while self.accept("COMMA"):
            items.append(item())
        self.expect("RPAREN")
        return items

    def rest_of_line(self, line):
        """The tokens up to the next newline, as the stream of the pragma
        on ``line``."""
        start = self._pos
        while self._tokens[self._pos].kind not in ("NEWLINE", "EOF"):
            self._pos += 1
        end = Token("EOF", None, line, None)
        return _TokenStream(self._tokens[start : self._pos] + [end], line)


class Parser:
    """Parses a full MiniOMP program."""

    def __init__(self, source):
        self.stream = _TokenStream(tokenize(source))
        self._depth = 0  # levels of nesting open (:data:`_MAX_NESTING`)

    def _nest(self, token):
        """Open one more level of nesting at ``token``."""
        self._depth += 1
        if self._depth > _MAX_NESTING:
            raise FrontendError(f"nested deeper than {_MAX_NESTING} levels",
                                token.line, token.column)

    # -- top level -----------------------------------------------------------

    def parse_program(self):
        globals_, functions = [], []
        pending_threadprivate = []
        while True:
            token = self.stream.peek()
            if token.kind == "EOF":
                break
            if token.kind == "GLOBAL":
                globals_.append(self._parse_global())
            elif token.kind == "FUNC":
                functions.append(self._parse_function())
            elif token.kind == "PRAGMA":
                directive = self._parse_pragma_line()
                if directive.kind != "threadprivate":
                    raise FrontendError(
                        f"only threadprivate pragmas are allowed at top "
                        f"level, found {directive.kind!r}",
                        directive.line,
                    )
                pending_threadprivate.extend(directive.clauses.shared)
            else:
                raise FrontendError(
                    f"expected global/func declaration, found {token.text!r}",
                    token.line,
                    token.column,
                )
        for decl in globals_:
            if decl.name in pending_threadprivate:
                decl.threadprivate = True
                pending_threadprivate = [
                    n for n in pending_threadprivate if n != decl.name
                ]
        if pending_threadprivate:
            raise FrontendError(
                f"threadprivate names not declared as globals: "
                f"{pending_threadprivate}"
            )
        return ast.Program(globals_, functions)

    def _parse_global(self):
        token = self.stream.expect("GLOBAL")
        name, type_spec = self._parse_typed_name()
        init = None
        if self.stream.accept("ASSIGN"):
            init = self._parse_expression()
        self.stream.expect("SEMI")
        return ast.GlobalDecl(name, type_spec, init, line=token.line)

    def _parse_function(self):
        token = self.stream.expect("FUNC")
        name = self.stream.expect("IDENT").text
        self.stream.expect("LPAREN")
        params = self.stream.comma_list(
            lambda: ast.Param(*self._parse_typed_name()), empty_ok=True
        )
        return_type = ast.TypeSpec("void")
        if self.stream.accept("ARROW"):
            return_type = self._parse_type()
        body = self._parse_block()
        return ast.FuncDecl(name, params, return_type, body, line=token.line)

    def _parse_typed_name(self):
        """``name: type``, as a (name, TypeSpec) pair."""
        name = self.stream.expect("IDENT").text
        self.stream.expect("COLON")
        return name, self._parse_type()

    def _parse_type(self):
        token = self.stream.next()
        if token.kind not in _KEYWORD_KINDS.values():
            raise FrontendError(
                f"expected a type, found {token.text!r}", token.line
            )
        dims = []
        while self.stream.accept("LBRACKET"):
            dims.append(int(self.stream.expect("INT").text))
            self.stream.expect("RBRACKET")
        return ast.TypeSpec(token.text, dims)

    # -- pragmas -----------------------------------------------------------

    def _parse_pragma_line(self):
        """Parse ``pragma omp <directive> <clauses...>`` up to end of line."""
        line = self.stream.expect("PRAGMA").line
        self.stream.expect("OMP")
        pragma = self.stream.rest_of_line(line)
        kind = pragma.word("directive name")
        if kind == "parallel" and pragma.peek().text == "for":
            pragma.next()
            kind = "parallel_for"
        clauses = Clauses()
        if kind == "critical" and pragma.accept("LPAREN"):
            clauses.critical_name = pragma.word("critical name")
            pragma.expect("RPAREN")
        if kind == "threadprivate":
            pragma.expect("LPAREN")
            clauses.shared = pragma.variables()
        self._parse_clauses(pragma, clauses)
        return Directive(kind, clauses, line=line)

    def _parse_clauses(self, pragma, clauses):
        while (token := pragma.next()).kind != "EOF":
            name = token.text
            if name not in _CLAUSE_NAMES:
                raise FrontendError(
                    f"unexpected token {name!r} in pragma", token.line
                )
            if name == "nowait":
                clauses.nowait = True
                continue
            if name == "ordered":
                clauses.ordered_clause = True
                continue
            pragma.expect("LPAREN")
            if name == "reduction":
                op = pragma.reduction_op("reduction")
                pragma.expect("COLON")
                clauses.reductions.extend(
                    (op, var) for var in pragma.variables()
                )
            elif name == "depend":
                mode = pragma.word("depend mode")
                pragma.expect("COLON")
                clauses.depends.extend(
                    (mode, var) for var in pragma.variables()
                )
            elif name == "schedule":
                kind = pragma.word("schedule kind")
                chunk = None
                if pragma.accept("COMMA"):
                    chunk = int(pragma.expect("INT").text)
                pragma.expect("RPAREN")
                clauses.schedule = (kind, chunk)
            else:
                getattr(clauses, name).extend(pragma.variables())

    # -- statements ----------------------------------------------------------

    def _parse_block(self):
        open_token = self.stream.expect("LBRACE")
        self._nest(open_token)
        statements = []
        while self.stream.peek().kind != "RBRACE":
            if self.stream.peek().kind == "EOF":
                raise FrontendError("unterminated block", open_token.line)
            statements.append(self._parse_statement())
        self.stream.expect("RBRACE")
        self._depth -= 1
        return ast.Block(statements, line=open_token.line)

    def _parse_statement(self):
        pragmas = []
        while self.stream.peek().kind == "PRAGMA":
            directive = self._parse_pragma_line()
            if directive.is_standalone():
                return ast.StandaloneDirective(
                    directive=directive, line=directive.line, pragmas=pragmas
                )
            pragmas.append(directive)
        statement = self._parse_base_statement()
        statement.pragmas = pragmas + statement.pragmas
        return statement

    def _parse_base_statement(self):
        token = self.stream.peek()
        kind = token.kind
        if kind == "VAR":
            return self._parse_var_decl()
        if kind == "IF":
            return self._parse_if()
        if kind == "WHILE":
            return self._parse_while()
        if kind == "FOR":
            return self._parse_for()
        if kind == "PRINT":
            return self._parse_print()
        if kind == "RETURN":
            self.stream.next()
            value = None
            if self.stream.peek().kind != "SEMI":
                value = self._parse_expression()
            self.stream.expect("SEMI")
            return ast.ReturnStmt(value=value, line=token.line)
        if kind == "LBRACE":
            return self._parse_block()
        if kind == "SPAWN":
            return self._parse_spawn()
        if kind == "SYNC":
            self.stream.next()
            self.stream.expect("SEMI")
            return ast.StandaloneDirective(
                directive=Directive("cilk_sync", line=token.line),
                line=token.line,
            )
        if kind == "CILK_FOR":
            return self._parse_for(cilk=True)
        if kind == "CILK_SCOPE":
            self.stream.next()
            block = self._parse_block()
            block.pragmas.append(Directive("cilk_scope", line=token.line))
            return block
        if kind == "IDENT":
            return self._parse_assign_or_call()
        raise FrontendError(
            f"unexpected token {token.text!r} at statement start",
            token.line,
            token.column,
        )

    def _parse_var_decl(self):
        token = self.stream.expect("VAR")
        name, type_spec = self._parse_typed_name()
        reducer_op = None
        if self.stream.accept("REDUCER"):
            self.stream.expect("LPAREN")
            reducer_op = self.stream.reduction_op("reducer")
            self.stream.expect("RPAREN")
        init = None
        if self.stream.accept("ASSIGN"):
            init = self._parse_expression()
        self.stream.expect("SEMI")
        return ast.VarDecl(
            name=name,
            type=type_spec,
            init=init,
            reducer_op=reducer_op,
            line=token.line,
        )

    def _parse_if(self):
        token = self.stream.expect("IF")
        self.stream.expect("LPAREN")
        condition = self._parse_expression()
        self.stream.expect("RPAREN")
        then_body = self._parse_block()
        else_body = None
        if self.stream.accept("ELSE"):
            if self.stream.peek().kind == "IF":
                self._nest(self.stream.peek())
                nested = self._parse_if()
                self._depth -= 1
                else_body = ast.Block([nested], line=nested.line)
            else:
                else_body = self._parse_block()
        return ast.If(
            condition=condition,
            then_body=then_body,
            else_body=else_body,
            line=token.line,
        )

    def _parse_while(self):
        token = self.stream.expect("WHILE")
        self.stream.expect("LPAREN")
        condition = self._parse_expression()
        self.stream.expect("RPAREN")
        body = self._parse_block()
        return ast.While(condition=condition, body=body, line=token.line)

    def _parse_for(self, cilk=False):
        token = self.stream.next()  # FOR or CILK_FOR
        var = self.stream.expect("IDENT").text
        self.stream.expect("IN")
        lower = self._parse_expression()
        self.stream.expect("DOTDOT")
        upper = self._parse_expression()
        step = None
        if self.stream.accept("STEP"):
            step = self._parse_expression()
        body = self._parse_block()
        statement = ast.For(
            var=var,
            lower=lower,
            upper=upper,
            step=step,
            body=body,
            line=token.line,
        )
        if cilk:
            statement.pragmas.append(Directive("cilk_for", line=token.line))
        return statement

    def _parse_print(self):
        token = self.stream.expect("PRINT")
        self.stream.expect("LPAREN")
        args = self.stream.comma_list(self._parse_expression, empty_ok=True)
        self.stream.expect("SEMI")
        return ast.PrintStmt(args=args, line=token.line)

    def _parse_spawn(self):
        token = self.stream.expect("SPAWN")
        first = self._parse_postfix()
        target = None
        if self.stream.accept("ASSIGN"):
            target = first
            call = self._parse_postfix()
        else:
            call = first
        if not isinstance(call, ast.CallExpr):
            raise FrontendError("spawn requires a call", token.line)
        self.stream.expect("SEMI")
        return ast.SpawnStmt(call=call, target=target, line=token.line)

    def _parse_assign_or_call(self):
        start = self.stream.peek()
        expr = self._parse_postfix()
        if self.stream.accept("ASSIGN"):
            value = self._parse_expression()
            self.stream.expect("SEMI")
            if not isinstance(expr, (ast.VarRef, ast.Index)):
                raise FrontendError(
                    "left side of assignment must be a variable or element",
                    start.line,
                )
            return ast.Assign(target=expr, value=value, line=start.line)
        self.stream.expect("SEMI")
        if not isinstance(expr, ast.CallExpr):
            raise FrontendError(
                "expression statement must be a call", start.line
            )
        return ast.ExprStmt(expr=expr, line=start.line)

    # -- expressions ----------------------------------------------------------

    def _parse_expression(self, floor=1):
        """An expression whose binary operators bind at least ``floor``
        tightly (precedence climbing over :data:`_BINARY_PRECEDENCE`).
        Each operator the loop applies sinks the tree built so far one
        level deeper."""
        depth = self._depth
        self._nest(self.stream.peek())
        expr = self._parse_unary()
        while True:
            token = self.stream.peek()
            precedence = _BINARY_PRECEDENCE.get(token.kind, 0)
            if precedence < floor:
                self._depth = depth
                return expr
            self.stream.next()
            self._nest(token)
            rhs = self._parse_expression(precedence + 1)
            expr = ast.BinExpr(token.text, expr, rhs, line=token.line)

    def _parse_unary(self):
        token = self.stream.peek()
        if token.kind in ("MINUS", "BANG"):
            self.stream.next()
            self._nest(token)
            operand = self._parse_unary()
            self._depth -= 1
            return ast.UnExpr(token.text, operand, line=token.line)
        return self._parse_postfix()

    def _parse_postfix(self):
        expr = self._parse_primary()
        while True:
            token = self.stream.peek()
            if token.kind == "LBRACKET":
                self.stream.next()
                index = self._parse_expression()
                self.stream.expect("RBRACKET")
                expr = ast.Index(expr, index, line=token.line)
            elif token.kind == "LPAREN" and isinstance(expr, ast.VarRef):
                self.stream.next()
                args = self.stream.comma_list(
                    self._parse_expression, empty_ok=True
                )
                expr = ast.CallExpr(expr.name, args, line=token.line)
            else:
                return expr

    def _parse_primary(self):
        token = self.stream.next()
        if token.kind == "INT":
            return ast.IntLit(int(token.text), line=token.line)
        if token.kind == "FLOAT":
            return ast.FloatLit(float(token.text), line=token.line)
        if token.kind in ("TRUE", "FALSE"):
            return ast.BoolLit(token.kind == "TRUE", line=token.line)
        if token.kind == "STRING":
            return ast.StringLit(token.text[1:-1], line=token.line)
        if token.kind == "IDENT":
            return ast.VarRef(token.text, line=token.line)
        if token.kind == "LPAREN":
            expr = self._parse_expression()
            self.stream.expect("RPAREN")
            return expr
        if token.kind in _KEYWORD_KINDS.values():
            # Cast syntax: int(expr), float(expr).
            self.stream.expect("LPAREN")
            inner = self._parse_expression()
            self.stream.expect("RPAREN")
            return ast.CallExpr(token.text, [inner], line=token.line)
        raise FrontendError(
            f"unexpected token {token.text!r} in expression",
            token.line,
            token.column,
        )


def parse_source(source):
    """Parse MiniOMP source text into an AST :class:`~repro.frontend.ast.Program`."""
    return Parser(source).parse_program()
