"""Lowering: MiniOMP AST -> repro IR with parallel-region annotations.

This is the "custom front-end" stage of the paper's pipeline (Fig. 12): it
produces sequential IR whose execution order realizes the program, plus
metadata (:class:`~repro.frontend.directives.RegionAnnotation`) recording
where each pragma applied and which IR values its clause variables resolve
to.  The PS-PDG builder consumes the metadata; sequential tools (PDG,
interpreter) can ignore it entirely.

Lowering conventions
--------------------
* Named variables live in memory: one ``alloca`` per declaration.  An
  alloca names a *static* per-invocation object (re-executing it yields the
  same storage), so declarations inside loops do not churn objects.
* ``for`` loops lower to the canonical preheader/header/body/latch/exit
  shape and record :class:`~repro.ir.loopinfo.CanonicalLoop` metadata.
* Every annotated statement is wrapped between a fresh ``<kind>.entry``
  block and ``<kind>.exit`` block, making the region single-entry
  single-exit; the annotation's block list is every block created in
  between (hierarchical nesting falls out of block-set containment).
* Numeric promotion: ``int`` operands promote to ``float`` when mixed;
  ``&&``/``||`` lower to ``select`` (non-short-circuit — MiniOMP
  expressions are side-effect-free except calls, and mirroring C's
  short-circuit CFG would only add blocks the analyses don't care about).

Checks
------
The same walk rejects, with a located :class:`FrontendError`: a name
declared twice in one scope (globals, functions, parameters, locals, a
loop variable redeclared in its body), a function named like a builtin,
an array with an initializer, an undeclared variable or function, a call
with the wrong argument count or an array argument of the wrong shape, a
``return`` that disagrees with the function's type, an operand type its
operator, builtin or ``print`` does not accept (a bool in arithmetic, an
array anywhere but a call argument or an index base), a
loop-independence directive on a statement that is not a ``for``, a
clause naming an undeclared variable, ``anyvalue`` on an array, and a
reduction or reducer whose operator does not apply to its variable's
type.  The first error the walk meets is the one reported.
"""

from repro.frontend import ast
from repro.frontend.directives import (
    REDUCTION_OPS,
    Clauses,
    Directive,
    RegionAnnotation,
)
from repro.ir.builder import IRBuilder
from repro.ir.function import Module
from repro.ir.instructions import INT_ONLY_BINARY_OPS
from repro.ir.loopinfo import CanonicalLoop
from repro.ir.types import BOOL, FLOAT, INT, VOID, ArrayType, PointerType
from repro.ir.verifier import verify_module
from repro.util.errors import FrontendError
from repro.util.ids import IdAllocator

#: Builtin name -> argument count.
BUILTIN_FUNCTIONS = {
    "sqrt": 1,
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "floor": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
    "int": 1,
    "float": 1,
}

_SCALAR_TYPES = {"int": INT, "float": FLOAT, "bool": BOOL, "void": VOID}

_NUMBERS = (INT, FLOAT)
_SCALARS = (INT, FLOAT, BOOL)

_BINOP_MAP = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "rem",
    "&": "and",
    "|": "or",
    "^": "xor",
}

_CMP_MAP = {
    "==": "eq",
    "!=": "ne",
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
}


def ir_type_of(spec):
    """Convert a source :class:`TypeSpec` to an IR type."""
    base = _SCALAR_TYPES[spec.base]
    result = base
    for dim in reversed(spec.dims):
        result = ArrayType(result, dim)
    return result


class _Scope:
    """Name -> IR storage (Alloca / GlobalVariable / Argument)."""

    def __init__(self, parent=None):
        self.parent = parent
        self.bindings = {}

    def declare(self, name, storage, line=None):
        if name in self.bindings:
            raise FrontendError(f"duplicate declaration of {name!r}", line)
        self.bindings[name] = storage

    def lookup(self, name):
        scope = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None


def _is_array(storage):
    """Does ``storage`` (an alloca, global or array argument) hold an array?"""
    return isinstance(storage.type.pointee, ArrayType)


def _check_type(value_type, allowed, what, line):
    """Raise unless ``value_type`` is one of the ``allowed`` types."""
    if value_type not in allowed:
        names = " or ".join(map(repr, allowed))
        raise FrontendError(
            f"{what} requires {names} operands, got {value_type!r}", line
        )


def _check_reducible(op, value_type, what, line):
    """Raise unless reduction ``op`` applies to ``value_type``."""
    bitwise = REDUCTION_OPS[op] in INT_ONLY_BINARY_OPS
    _check_type(value_type, (INT,) if bitwise else _NUMBERS, what, line)


class Lowerer:
    """Checks and lowers one program to an IR module."""

    def __init__(self, program, module_name="miniomp"):
        self.program = program
        self.module = Module(module_name)
        self.context_ids = IdAllocator("omp")
        self.builder = None
        self.function = None
        self._region_stack = []

    # -- top level -------------------------------------------------------------

    def run(self):
        for decl in self.program.globals:
            if decl.name in self.module.globals:
                raise FrontendError(
                    f"duplicate global {decl.name!r}", decl.line
                )
            init = None
            if decl.init is not None:
                if decl.type.is_array():
                    raise FrontendError(
                        "array globals cannot have initializers", decl.line
                    )
                init = self._constant_fold(decl.init)
            self.module.add_global(decl.name, ir_type_of(decl.type), init)
        self.module.metadata["threadprivate"] = {
            decl.name for decl in self.program.globals if decl.threadprivate
        }

        # Declare all functions first so calls resolve in any order.
        declared = {}
        for func in self.program.functions:
            if func.name in declared:
                raise FrontendError(
                    f"duplicate function {func.name!r}", func.line
                )
            if func.name in BUILTIN_FUNCTIONS:
                raise FrontendError(
                    f"function name {func.name!r} shadows a builtin", func.line
                )
            arg_types = []
            for param in func.params:
                ir_type = ir_type_of(param.type)
                if param.type.is_array():
                    ir_type = PointerType(ir_type)
                arg_types.append(ir_type)
            declared[func.name] = self.module.create_function(
                func.name,
                arg_types,
                [p.name for p in func.params],
                ir_type_of(func.return_type),
            )

        for func in self.program.functions:
            self._lower_function(func, declared[func.name])

        verify_module(self.module)
        return self.module

    def _constant_fold(self, expr):
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.UnExpr) and expr.op == "-":
            return -self._constant_fold(expr.operand)
        raise FrontendError(
            "global initializers must be constants", expr.line
        )

    # -- functions --------------------------------------------------------------

    def _lower_function(self, func_ast, function):
        self.function = function
        entry = function.create_block("entry")
        self.builder = IRBuilder(entry)
        self._region_stack = []

        scope = _Scope()
        for name, gvar in self.module.globals.items():
            scope.declare(name, gvar)
        scope = _Scope(scope)
        for param, argument in zip(func_ast.params, function.args):
            if param.type.is_array():
                scope.declare(param.name, argument, func_ast.line)
            else:
                slot = self.builder.alloca(
                    ir_type_of(param.type), param.name
                )
                self.builder.store(argument, slot)
                scope.declare(param.name, slot, func_ast.line)

        self._lower_block(func_ast.body, _Scope(scope))

        # Seal: any unterminated block gets an implicit return.
        for block in function.blocks:
            if not block.is_terminated():
                saved = self.builder.block
                self.builder.position_at_end(block)
                self._emit_default_return()
                self.builder.position_at_end(saved)

    def _emit_default_return(self):
        if self.function.return_type == VOID:
            self.builder.ret()
        elif self.function.return_type == FLOAT:
            self.builder.ret(self.builder.float(0.0))
        elif self.function.return_type == BOOL:
            self.builder.ret(self.builder.bool(False))
        else:
            self.builder.ret(self.builder.int(0))

    # -- statements -----------------------------------------------------------

    def _lower_block(self, block, scope):
        for statement in block.statements:
            if self.builder.block.is_terminated():
                # Unreachable code after return: lower into a fresh dead
                # block so the verifier still sees well-formed IR.
                dead = self.function.create_block("dead")
                self.builder.position_at_end(dead)
            self._lower_statement(statement, scope)

    def _lower_statement(self, statement, scope):
        loop_var = statement.var if isinstance(statement, ast.For) else None
        pragmas = []
        for directive in statement.pragmas:
            if directive.declares_loop_independence() and loop_var is None:
                raise FrontendError(
                    f"directive {directive.kind!r} must annotate a for loop",
                    directive.line,
                )
            bindings = self._resolve_clause_bindings(
                directive, scope, loop_var
            )
            pragmas.append((directive, bindings))
        self._lower_with_pragmas(statement, pragmas, scope)

    def _lower_with_pragmas(self, statement, pragmas, scope):
        if not pragmas:
            return self._lower_base_statement(statement, scope)

        directive, bindings = pragmas[0]
        uid = self.context_ids.fresh()
        entry = self.function.create_block(f"{directive.kind}.entry")
        self.builder.jump(entry)
        self.builder.position_at_end(entry)
        start_index = len(self.function.blocks) - 1

        parent_uid = self._region_stack[-1] if self._region_stack else None
        self._region_stack.append(uid)
        result = self._lower_with_pragmas(statement, pragmas[1:], scope)
        self._region_stack.pop()

        exit_block = self.function.create_block(f"{directive.kind}.exit")
        self.builder.jump(exit_block)
        self.builder.position_at_end(exit_block)
        exit_index = len(self.function.blocks) - 1
        block_names = [
            b.name for b in self.function.blocks[start_index:exit_index]
        ]

        for name, storage in bindings.items():
            if storage is None:  # the loop variable
                bindings[name] = result["induction"]
        annotation = RegionAnnotation(
            uid=uid,
            directive=directive,
            block_names=block_names,
            loop_header=(result or {}).get("loop_header"),
            var_bindings=bindings,
            parent_uid=parent_uid,
        )
        self.function.annotations.append(annotation)
        return result

    def _resolve_clause_bindings(self, directive, scope, loop_var):
        """Clause variable name -> storage in ``scope``; the loop
        variable's slot is filled in once its loop is lowered."""
        bindings = {}
        anyvalue = directive.clauses.anyvalue
        for name in directive.clauses.all_variable_names():
            storage = scope.lookup(name)
            if storage is None:
                if name != loop_var:
                    raise FrontendError(
                        f"pragma clause names undeclared variable {name!r}",
                        directive.line,
                    )
            elif name in anyvalue and _is_array(storage):
                raise FrontendError(
                    f"anyvalue({name}) requires a scalar", directive.line
                )
            bindings[name] = None if name == loop_var else storage
        for op, name in directive.clauses.reductions:
            if bindings[name] is not None:
                element = bindings[name].type.pointee
                while isinstance(element, ArrayType):
                    element = element.element
                _check_reducible(
                    op, element, f"reduction({op}: {name})", directive.line
                )
        return bindings

    def _lower_base_statement(self, statement, scope):
        if isinstance(statement, ast.VarDecl):
            return self._lower_var_decl(statement, scope)
        if isinstance(statement, ast.Assign):
            return self._lower_assign(statement, scope)
        if isinstance(statement, ast.If):
            return self._lower_if(statement, scope)
        if isinstance(statement, ast.While):
            return self._lower_while(statement, scope)
        if isinstance(statement, ast.For):
            return self._lower_for(statement, scope)
        if isinstance(statement, ast.PrintStmt):
            return self._lower_print(statement, scope)
        if isinstance(statement, ast.ReturnStmt):
            return self._lower_return(statement, scope)
        if isinstance(statement, ast.ExprStmt):
            self._lower_expression(statement.expr, scope)
            return None
        if isinstance(statement, ast.Block):
            self._lower_block(statement, _Scope(scope))
            return None
        if isinstance(statement, ast.StandaloneDirective):
            return self._lower_standalone(statement, scope)
        if isinstance(statement, ast.SpawnStmt):
            return self._lower_spawn(statement, scope)
        raise FrontendError(
            f"unhandled statement {type(statement).__name__}", statement.line
        )

    def _lower_var_decl(self, statement, scope):
        slot = self.builder.alloca(ir_type_of(statement.type), statement.name)
        scope.declare(statement.name, slot, statement.line)
        if statement.init is not None:
            if statement.type.is_array():
                raise FrontendError(
                    "array variables cannot have initializers", statement.line
                )
            value = self._lower_expression(statement.init, scope)
            value = self._coerce(
                value, _SCALAR_TYPES[statement.type.base], statement.line
            )
            self.builder.store(value, slot)
        if statement.reducer_op is not None:
            # Cilk hyperobject: record a whole-function reducible variable.
            _check_reducible(
                statement.reducer_op,
                slot.type.pointee,
                f"reducer({statement.reducer_op})",
                statement.line,
            )
            clauses = Clauses(
                reductions=[(statement.reducer_op, statement.name)]
            )
            annotation = RegionAnnotation(
                uid=self.context_ids.fresh(),
                directive=Directive(
                    "cilk_reducer", clauses, line=statement.line
                ),
                block_names=[],
                var_bindings={statement.name: slot},
                parent_uid=(
                    self._region_stack[-1] if self._region_stack else None
                ),
            )
            self.function.annotations.append(annotation)
        return None

    def _lower_assign(self, statement, scope):
        value = self._lower_expression(statement.value, scope)
        address = self._lower_address(statement.target, scope)
        target_type = address.type.pointee
        value = self._coerce(value, target_type, statement.line)
        self.builder.store(value, address)
        return None

    def _lower_if(self, statement, scope):
        condition = self._lower_expression(statement.condition, scope)
        condition = self._require_bool(condition, statement.line)
        then_block = self.function.create_block("if.then")
        merge_block_name = "if.end"
        if statement.else_body is not None:
            else_block = self.function.create_block("if.else")
            self.builder.branch(condition, then_block, else_block)
        else:
            else_block = None
            merge = self.function.create_block(merge_block_name)
            self.builder.branch(condition, then_block, merge)

        self.builder.position_at_end(then_block)
        self._lower_block(statement.then_body, _Scope(scope))
        then_end = self.builder.block

        if statement.else_body is not None:
            self.builder.position_at_end(else_block)
            self._lower_block(statement.else_body, _Scope(scope))
            else_end = self.builder.block
            merge = self.function.create_block(merge_block_name)
            for end in (then_end, else_end):
                if not end.is_terminated():
                    self.builder.position_at_end(end)
                    self.builder.jump(merge)
        else:
            if not then_end.is_terminated():
                self.builder.position_at_end(then_end)
                self.builder.jump(merge)
        self.builder.position_at_end(merge)
        return None

    def _lower_while(self, statement, scope):
        header = self.function.create_block("while.header")
        self.builder.jump(header)
        self.builder.position_at_end(header)
        condition = self._lower_expression(statement.condition, scope)
        condition = self._require_bool(condition, statement.line)
        body = self.function.create_block("while.body")
        exit_block = self.function.create_block("while.exit")
        self.builder.branch(condition, body, exit_block)
        self.builder.position_at_end(body)
        self._lower_block(statement.body, _Scope(scope))
        if not self.builder.block.is_terminated():
            self.builder.jump(header)
        self.builder.position_at_end(exit_block)
        return None

    def _lower_for(self, statement, scope):
        lower = self._coerce(
            self._lower_expression(statement.lower, scope), INT, statement.line
        )
        upper = self._coerce(
            self._lower_expression(statement.upper, scope), INT, statement.line
        )
        if statement.step is None:
            step = self.builder.int(1)
        else:
            step = self._coerce(
                self._lower_expression(statement.step, scope),
                INT,
                statement.line,
            )

        induction = self.builder.alloca(INT, statement.var)
        self.builder.store(lower, induction)

        header = self.function.create_block("for.header")
        self.builder.jump(header)
        self.builder.position_at_end(header)
        current = self.builder.load(induction)
        condition = self.builder.cmp("lt", current, upper)
        body = self.function.create_block("for.body")
        latch = None  # created after the body so block order reads naturally
        # We need the exit block object for the branch now:
        exit_block = self.function.create_block("for.exit")
        self.builder.branch(condition, body, exit_block)

        loop_scope = _Scope(scope)
        loop_scope.declare(statement.var, induction)
        self.builder.position_at_end(body)
        self._lower_block(statement.body, loop_scope)
        body_end = self.builder.block

        latch = self.function.create_block("for.latch")
        if not body_end.is_terminated():
            self.builder.position_at_end(body_end)
            self.builder.jump(latch)
        self.builder.position_at_end(latch)
        iv_value = self.builder.load(induction)
        next_value = self.builder.add(iv_value, step)
        self.builder.store(next_value, induction)
        self.builder.jump(header)

        self.builder.position_at_end(exit_block)
        self.function.loop_info[header.name] = CanonicalLoop(
            header=header.name,
            body=body.name,
            latch=latch.name,
            exit=exit_block.name,
            induction=induction,
            lower=lower,
            upper=upper,
            step=step,
        )
        return {"loop_header": header.name, "induction": induction}

    def _lower_print(self, statement, scope):
        labels = []
        values = []
        for arg in statement.args:
            if isinstance(arg, ast.StringLit):
                labels.append(arg.value)
            else:
                value = self._lower_expression(arg, scope)
                _check_type(value.type, _SCALARS, "print", statement.line)
                values.append(value)
        label = " ".join(labels) if labels else None
        self.builder.print_(values)
        self.builder.block.instructions[-1].label = label
        return None

    def _lower_return(self, statement, scope):
        void = self.function.return_type == VOID
        if statement.value is None:
            if not void:
                raise FrontendError(
                    "non-void function returns no value", statement.line
                )
            self.builder.ret()
        else:
            value = self._lower_expression(statement.value, scope)
            if void:
                raise FrontendError(
                    "void function returns a value", statement.line
                )
            value = self._coerce(
                value, self.function.return_type, statement.line
            )
            self.builder.ret(value)
        return None

    def _lower_standalone(self, statement, scope):
        block = self.function.create_block(statement.directive.kind)
        self.builder.jump(block)
        self.builder.position_at_end(block)
        continuation = self.function.create_block(
            f"{statement.directive.kind}.cont"
        )
        self.builder.jump(continuation)
        annotation = RegionAnnotation(
            uid=self.context_ids.fresh(),
            directive=statement.directive,
            block_names=[block.name],
            parent_uid=self._region_stack[-1] if self._region_stack else None,
        )
        self.function.annotations.append(annotation)
        self.builder.position_at_end(continuation)
        return None

    def _lower_spawn(self, statement, scope):
        directive = Directive("cilk_spawn", line=statement.line)
        entry = self.function.create_block("cilk_spawn.entry")
        self.builder.jump(entry)
        self.builder.position_at_end(entry)
        start_index = len(self.function.blocks) - 1

        value = self._lower_expression(statement.call, scope)
        if statement.target is not None:
            address = self._lower_address(statement.target, scope)
            value = self._coerce(
                value, address.type.pointee, statement.line
            )
            self.builder.store(value, address)

        exit_block = self.function.create_block("cilk_spawn.exit")
        self.builder.jump(exit_block)
        self.builder.position_at_end(exit_block)
        exit_index = len(self.function.blocks) - 1
        annotation = RegionAnnotation(
            uid=self.context_ids.fresh(),
            directive=directive,
            block_names=[
                b.name
                for b in self.function.blocks[start_index:exit_index]
            ],
            parent_uid=self._region_stack[-1] if self._region_stack else None,
        )
        self.function.annotations.append(annotation)
        return None

    # -- expressions ----------------------------------------------------------

    def _lower_expression(self, expr, scope):
        if isinstance(expr, ast.IntLit):
            return self.builder.int(expr.value)
        if isinstance(expr, ast.FloatLit):
            return self.builder.float(expr.value)
        if isinstance(expr, ast.BoolLit):
            return self.builder.bool(expr.value)
        if isinstance(expr, ast.StringLit):
            raise FrontendError(
                "string literals are only allowed in print", expr.line
            )
        if isinstance(expr, ast.VarRef):
            storage = scope.lookup(expr.name)
            if storage is None:
                raise FrontendError(
                    f"undeclared variable {expr.name!r}", expr.line
                )
            if _is_array(storage):
                return storage  # whole array: yields the pointer
            return self.builder.load(storage)
        if isinstance(expr, ast.Index):
            address = self._lower_address(expr, scope)
            if isinstance(address.type.pointee, ArrayType):
                return address  # partial index of a multi-dim array
            return self.builder.load(address)
        if isinstance(expr, ast.BinExpr):
            return self._lower_binary(expr, scope)
        if isinstance(expr, ast.UnExpr):
            return self._lower_unary(expr, scope)
        if isinstance(expr, ast.CallExpr):
            return self._lower_call(expr, scope)
        raise FrontendError(
            f"unhandled expression {type(expr).__name__}", expr.line
        )

    def _lower_address(self, expr, scope):
        if isinstance(expr, ast.VarRef):
            storage = scope.lookup(expr.name)
            if storage is None:
                raise FrontendError(
                    f"undeclared variable {expr.name!r}", expr.line
                )
            return storage
        if isinstance(expr, ast.Index):
            base = self._lower_address(expr.base, scope)
            if not isinstance(base.type.pointee, ArrayType):
                raise FrontendError("indexing a non-array value", expr.line)
            index = self._coerce(
                self._lower_expression(expr.index, scope), INT, expr.line
            )
            return self.builder.gep(base, index)
        raise FrontendError("expression is not addressable", expr.line)

    def _lower_binary(self, expr, scope):
        if expr.op in ("&&", "||"):
            lhs = self._require_bool(
                self._lower_expression(expr.lhs, scope), expr.line
            )
            rhs = self._require_bool(
                self._lower_expression(expr.rhs, scope), expr.line
            )
            if expr.op == "&&":
                return self.builder.select(lhs, rhs, self.builder.bool(False))
            return self.builder.select(lhs, self.builder.bool(True), rhs)

        lhs = self._lower_expression(expr.lhs, scope)
        rhs = self._lower_expression(expr.rhs, scope)
        lhs, rhs = self._promote_pair(lhs, rhs, expr.line)
        if expr.op in ("==", "!="):
            allowed = _SCALARS
        elif _BINOP_MAP.get(expr.op) in INT_ONLY_BINARY_OPS:
            allowed = (INT,)
        else:
            allowed = _NUMBERS
        _check_type(lhs.type, allowed, f"operator {expr.op!r}", expr.line)
        if expr.op in _CMP_MAP:
            return self.builder.cmp(_CMP_MAP[expr.op], lhs, rhs)
        if expr.op in _BINOP_MAP:
            return self.builder.binop(_BINOP_MAP[expr.op], lhs, rhs)
        raise FrontendError(f"unhandled operator {expr.op!r}", expr.line)

    def _lower_unary(self, expr, scope):
        operand = self._lower_expression(expr.operand, scope)
        if expr.op == "-":
            _check_type(operand.type, _NUMBERS, "operator '-'", expr.line)
            return self.builder.neg(operand)
        if expr.op == "!":
            operand = self._require_bool(operand, expr.line)
            return self.builder.unop("not", operand)
        raise FrontendError(f"unhandled unary {expr.op!r}", expr.line)

    def _lower_call(self, expr, scope):
        name = expr.name
        callee = self.module.functions.get(name)
        if name in BUILTIN_FUNCTIONS:
            expected = BUILTIN_FUNCTIONS[name]
        elif callee is not None:
            expected = len(callee.args)
        else:
            raise FrontendError(
                f"call to undeclared function {name!r}", expr.line
            )
        if len(expr.args) != expected:
            raise FrontendError(
                f"call to {name!r} passes {len(expr.args)} arguments, "
                f"expected {expected}",
                expr.line,
            )
        if callee is None:
            return self._lower_builtin(expr, scope)
        args = []
        for parameter, arg_expr in zip(callee.args, expr.args):
            if isinstance(parameter.type, PointerType):
                address = self._lower_address(arg_expr, scope)
                if address.type != parameter.type:
                    raise FrontendError(
                        f"argument {parameter.name!r} of {name!r} must be "
                        f"{parameter.type.pointee!r}, got "
                        f"{address.type.pointee!r}",
                        expr.line,
                    )
                args.append(address)
            else:
                value = self._lower_expression(arg_expr, scope)
                args.append(
                    self._coerce(value, parameter.type, expr.line)
                )
        return self.builder.call(callee, args)

    def _lower_builtin(self, expr, scope):
        name = expr.name
        args = [self._lower_expression(a, scope) for a in expr.args]
        if name in ("sqrt", "sin", "cos", "exp", "log", "floor"):
            value = self._coerce(args[0], FLOAT, expr.line)
            return self.builder.unop(name, value)
        if name == "abs":
            _check_type(args[0].type, _NUMBERS, "'abs'", expr.line)
            return self.builder.unop("abs", args[0])
        if name in ("min", "max"):
            lhs, rhs = self._promote_pair(args[0], args[1], expr.line)
            _check_type(lhs.type, _NUMBERS, repr(name), expr.line)
            return self.builder.binop(name, lhs, rhs)
        if name in ("int", "float"):
            value = args[0]
            if name == "float" and value.type == BOOL:
                value = self.builder.cast("bool_to_int", value)
            return self._coerce(value, _SCALAR_TYPES[name], expr.line)
        raise FrontendError(f"unhandled builtin {name!r}", expr.line)

    # -- type plumbing -----------------------------------------------------------

    def _promote_pair(self, lhs, rhs, line):
        if lhs.type == rhs.type:
            return lhs, rhs
        if lhs.type == INT and rhs.type == FLOAT:
            return self.builder.cast("int_to_float", lhs), rhs
        if lhs.type == FLOAT and rhs.type == INT:
            return lhs, self.builder.cast("int_to_float", rhs)
        raise FrontendError(
            f"incompatible operand types {lhs.type!r} and {rhs.type!r}", line
        )

    def _coerce(self, value, target_type, line):
        if value.type == target_type:
            return value
        if value.type == INT and target_type == FLOAT:
            return self.builder.cast("int_to_float", value)
        if value.type == FLOAT and target_type == INT:
            return self.builder.cast("float_to_int", value)
        if value.type == BOOL and target_type == INT:
            return self.builder.cast("bool_to_int", value)
        raise FrontendError(
            f"cannot convert {value.type!r} to {target_type!r}", line
        )

    def _require_bool(self, value, line):
        if value.type != BOOL:
            raise FrontendError(
                f"expected a bool expression, got {value.type!r}", line
            )
        return value


def lower_program(program, module_name="miniomp"):
    """Lower a parsed program; returns a verified IR module."""
    return Lowerer(program, module_name).run()
