"""Seeded random MiniOMP program generator for property tests.

Generates small, always-terminating programs — straight-line loop nests
over bounded iteration spaces with worksharing directives (reduction /
private / schedule clauses) — so that pipeline properties can be checked
over hundreds of cases without hand-writing them:

* parse -> print -> parse round-trips are stable,
* ``Session.plan()`` never crashes,
* every generated program interprets deterministically,
* the ``-O3`` pipeline preserves semantics (:func:`generate_nest_program`
  emits perfect serial-outer / workshared-inner nests in independent,
  inner-carried, and non-affine flavors; ``-O3`` serializes every
  region of that corpus, 69 of 69, as ``-O2`` does),
* the region compiler lowers a workshared loop's *sequential inner*
  control flow exactly (:func:`generate_body_nest_program` emits
  rectangular, triangular, zero-trip, reversed-index, accumulator,
  ``while``, ``if``/``else`` and three-deep inner shapes).

All randomness flows from one :class:`random.Random` seeded by the
caller, so failures reproduce from their case number alone.
"""

import random

_MAX_GLOBALS = 2
_MAX_SCALARS = 3
_MAX_LOOPS = 3
_MAX_BODY_STATEMENTS = 3
_ARRAY_SIZES = (8, 16)
_MATRIX_SIZES = (8, 12, 16)
_TRIP_COUNTS = (4, 6, 8, 12)


class _Generator:
    def __init__(self, rng, nests=False):
        self.rng = rng
        self.globals = []  # (name, size)
        self.matrices = []  # (name, size): square 2D globals for nests
        self.scalars = []  # scalar int vars declared before the loops
        self.counter = 0
        self.nests = nests  # force at least one perfect nest per program

    def fresh(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -- expressions (always non-negative ints) -----------------------------

    def expr(self, loop_var, depth=0, exclude=()):
        rng = self.rng
        readable = [s for s in self.scalars if s not in exclude]
        choices = ["literal", "loop_var"]
        if readable:
            choices.append("scalar")
        if depth < 2:
            choices += ["add", "mul", "mod"]
        kind = rng.choice(choices)
        if kind == "literal":
            return str(rng.randrange(0, 10))
        if kind == "loop_var":
            return loop_var
        if kind == "scalar":
            return rng.choice(readable)
        a = self.expr(loop_var, depth + 1, exclude)
        b = self.expr(loop_var, depth + 1, exclude)
        if kind == "add":
            return f"({a} + {b})"
        if kind == "mul":
            return f"({a} * {b})"
        return f"({a} % {rng.randrange(2, 16)})"

    def index(self, loop_var, size):
        return f"(({self.expr(loop_var)}) % {size})"

    # -- statements ----------------------------------------------------------
    #
    # Annotated (workshared) loops must be *honestly* parallel: the
    # PS-PDG trusts declared semantics, so a generated ``parallel_for``
    # whose body races (self-referential "reduction" updates, colliding
    # array writes, shared scalar stores) would make the chosen plan
    # legitimately diverge.  Sequential loops keep full generality.

    def body_statement(self, loop_var, reduction_var, annotated):
        rng = self.rng
        exclude = (reduction_var,) if annotated and reduction_var else ()
        kinds = []
        if self.globals:
            kinds.append("array_store")
        if reduction_var is not None:
            kinds.append("reduce")
        if self.scalars and not annotated:
            kinds.append("scalar_store")
        if not kinds:
            kinds = ["noop_temp"]
        kind = rng.choice(kinds)
        if kind == "array_store":
            name, size = rng.choice(self.globals)
            if annotated:
                # Disjoint per-iteration slot: index by the loop var
                # (trip counts are clamped to the array size).
                index = loop_var
            else:
                index = self.index(loop_var, size)
            return (
                f"    {name}[{index}] = "
                f"{self.expr(loop_var, exclude=exclude)};"
            )
        if kind == "reduce":
            return (
                f"    {reduction_var} = {reduction_var} + "
                f"{self.expr(loop_var, exclude=exclude)};"
            )
        if kind == "scalar_store":
            target = rng.choice(self.scalars)
            return f"    {target} = {self.expr(loop_var)};"
        temp = self.fresh("t")
        return (
            f"    var {temp}: int = "
            f"{self.expr(loop_var, exclude=exclude)};"
        )

    def loop(self):
        rng = self.rng
        loop_var = self.fresh("i")
        annotated = rng.random() < 0.6
        if annotated:
            bound = min((size for _name, size in self.globals),
                        default=max(_TRIP_COUNTS))
            trips = rng.choice([t for t in _TRIP_COUNTS if t <= bound])
        else:
            trips = rng.choice(_TRIP_COUNTS)
        lines = []
        reduction_var = None
        if annotated:
            clauses = []
            if self.scalars and rng.random() < 0.7:
                reduction_var = rng.choice(self.scalars)
                clauses.append(f"reduction(+: {reduction_var})")
            if rng.random() < 0.3:
                chunk = rng.randrange(1, 5)
                clauses.append(f"schedule(static, {chunk})")
            rendered = (" " + " ".join(clauses)) if clauses else ""
            lines.append(f"  pragma omp parallel_for{rendered}")
        lines.append(f"  for {loop_var} in 0..{trips} {{")
        for _ in range(rng.randrange(1, _MAX_BODY_STATEMENTS + 1)):
            lines.append(
                self.body_statement(loop_var, reduction_var, annotated)
            )
        lines.append("  }")
        return lines

    def nest(self):
        """A perfect serial-outer / workshared-inner nest over a matrix.

        Three seeded shapes, all race-free *within* one inner dispatch
        (the PS-PDG trusts the declared worksharing) but with different
        cross-outer behavior.  ``-O3`` re-fits none of them: the inner
        loop is too small to pay for its dispatch, so every one of the
        corpus's nest regions serializes, as at ``-O2``.

        * ``legal`` — each iteration updates its own slot of its own
          outer row: direction vectors are ``(*, =)``.
        * ``carried`` — reads the *previous* outer row one column over:
          the dependence is carried by the inner loop across the nest
          (subscripts are affine).
        * ``nonaffine`` — writes through a modular column index: the
          static test cannot decide the pair (although here the slots
          are disjoint).
        """
        rng = self.rng
        name, size = rng.choice(self.matrices)
        outer_var = self.fresh("t")
        inner_var = self.fresh("i")
        shape = rng.choice(("legal", "carried", "nonaffine"))
        outer_trips = rng.choice([t for t in _TRIP_COUNTS if t <= size])
        if shape == "nonaffine":
            # The modular index doubles: keep i*2 injective mod size.
            inner_trips = rng.choice(
                [t for t in _TRIP_COUNTS if t <= size // 2]
            )
        else:
            inner_trips = rng.choice([t for t in _TRIP_COUNTS if t <= size])
        lines = [f"  for {outer_var} in 0..{outer_trips} {{"]
        lines.append("    pragma omp parallel_for")
        lines.append(f"    for {inner_var} in 0..{inner_trips} {{")
        if shape == "legal":
            lines.append(
                f"      {name}[{outer_var}][{inner_var}] = "
                f"{name}[{outer_var}][{inner_var}] + "
                f"{self.expr(inner_var)};"
            )
        elif shape == "carried":
            lines.append(
                f"      if ({outer_var} >= 1 && "
                f"{inner_var} < {inner_trips - 1}) {{"
            )
            lines.append(
                f"        {name}[{outer_var}][{inner_var}] = "
                f"{name}[{outer_var} - 1][{inner_var} + 1] + 1;"
            )
            lines.append("      }")
        else:
            temp = self.fresh("k")
            lines.append(
                f"      var {temp}: int = ({inner_var} * 2) % {size};"
            )
            lines.append(
                f"      {name}[{outer_var}][{temp}] = "
                f"{self.expr(inner_var)};"
            )
        lines.append("    }")
        lines.append("  }")
        return lines

    #: The inner shapes :meth:`body_nest` draws from.
    BODY_SHAPES = (
        "rect", "triangular", "zero_trip", "reversed", "accumulate",
        "while", "if_else", "deep",
    )

    def body_nest(self, name, size, vector, shapes):
        """A workshared loop whose body holds sequential inner loops.

        Iteration ``i`` only ever writes row ``i`` of the matrix and
        slot ``i`` of the vector, so the loop is an honest DOALL; every
        index is in bounds.  ``shapes`` picks the inner control flow.
        """
        rng = self.rng
        i = self.fresh("i")
        trips = rng.choice([t for t in _TRIP_COUNTS if t <= size])
        lines = ["  pragma omp parallel_for", f"  for {i} in 0..{trips} {{"]
        for shape in shapes:
            j = self.fresh("j")
            inner = rng.choice([t for t in _TRIP_COUNTS if t <= size])
            cell = f"{name}[{i}][{j}]"
            if shape == "rect":
                lines += [
                    f"    for {j} in 0..{inner} {{",
                    f"      {cell} = {cell} + {self.expr(j)};",
                    "    }",
                ]
            elif shape == "triangular":
                lines += [
                    f"    for {j} in 0..{i} {{",
                    f"      {cell} = {cell} + {i} - {j};",
                    "    }",
                ]
            elif shape == "zero_trip":
                low = rng.randrange(1, size)
                lines += [
                    f"    for {j} in {low}..{rng.randrange(0, low + 1)} {{",
                    f"      {cell} = 99;",
                    "    }",
                ]
            elif shape == "reversed":
                lines += [
                    f"    for {j} in 0..{inner} {{",
                    f"      {name}[{i}][{size - 1} - {j}] = "
                    f"{cell} + {rng.randrange(1, 5)};",
                    "    }",
                ]
            elif shape == "accumulate":
                acc = self.fresh("acc")
                lines += [
                    f"    var {acc}: int = {rng.randrange(0, 4)};",
                    f"    for {j} in 0..{inner} {{",
                    f"      {acc} = {acc} + {cell} * {j};",
                    "    }",
                    f"    {vector}[{i}] = {vector}[{i}] + {acc};",
                ]
            elif shape == "while":
                lines += [
                    f"    var {j}: int = {rng.randrange(0, 3)};",
                    f"    while ({j} * 2 < {inner}) {{",
                    f"      {cell} = {cell} + {j};",
                    f"      {j} = {j} + 1;",
                    "    }",
                ]
            elif shape == "if_else":
                lines += [
                    f"    for {j} in 0..{inner} {{",
                    f"      if (({i} + {j}) % {rng.randrange(2, 4)} == 0) {{",
                    f"        {cell} = {j};",
                    "      } else {",
                    f"        {vector}[{i}] = {vector}[{i}] + 1;",
                    "      }",
                    "    }",
                ]
            else:  # deep: a triangular loop inside a rectangular one
                k = self.fresh("k")
                lines += [
                    f"    for {j} in 0..{inner} {{",
                    f"      for {k} in 0..{j} {{",
                    f"        {cell} = {cell} + {name}[{i}][{k}];",
                    "      }",
                    "    }",
                ]
        lines.append("  }")
        return lines

    def body_nest_program(self):
        rng = self.rng
        size = rng.choice(_MATRIX_SIZES)
        name, vector = self.fresh("m"), self.fresh("v")
        lines = [
            f"global {name}: int[{size}][{size}];",
            f"global {vector}: int[{size}];",
            "func main() {",
            f"  for r in 0..{size} {{",
            f"    for c in 0..{size} {{",
            f"      {name}[r][c] = (r * 3 + c) % 7;",
            "    }",
            "  }",
        ]
        for _ in range(rng.randrange(1, 3)):
            shapes = rng.sample(self.BODY_SHAPES, rng.randrange(1, 4))
            lines.extend(self.body_nest(name, size, vector, shapes))
        cells = ", ".join(
            f"{name}[{row}][{column}]"
            for row, column in ((0, 0), (1, size // 2), (size - 1, 1))
        )
        lines.append(
            f'  print("observed", {cells}, {vector}[0], {vector}[{size - 1}]);'
        )
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- whole programs -------------------------------------------------------

    def program(self):
        rng = self.rng
        lines = []
        for _ in range(rng.randrange(0, _MAX_GLOBALS + 1)):
            name = self.fresh("g")
            size = rng.choice(_ARRAY_SIZES)
            self.globals.append((name, size))
            lines.append(f"global {name}: int[{size}];")
        if self.nests or rng.random() < 0.4:
            name = self.fresh("m")
            size = rng.choice(_MATRIX_SIZES)
            self.matrices.append((name, size))
            lines.append(f"global {name}: int[{size}][{size}];")
        lines.append("func main() {")
        for _ in range(rng.randrange(1, _MAX_SCALARS + 1)):
            name = self.fresh("s")
            self.scalars.append(name)
            lines.append(f"  var {name}: int = {rng.randrange(0, 10)};")
        emitted_nest = False
        for _ in range(rng.randrange(1, _MAX_LOOPS + 1)):
            if self.matrices and rng.random() < (0.7 if self.nests else 0.3):
                lines.extend(self.nest())
                emitted_nest = True
            else:
                lines.extend(self.loop())
        if self.nests and not emitted_nest:
            lines.extend(self.nest())
        observed = list(self.scalars)
        for name, size in self.globals:
            observed.append(f"{name}[0]")
            observed.append(f"{name}[{size - 1}]")
        for name, size in self.matrices:
            observed.append(f"{name}[0][0]")
            observed.append(f"{name}[1][{size // 2}]")
            observed.append(f"{name}[{size - 1}][{size - 1}]")
        lines.append(f'  print("observed", {", ".join(observed)});')
        lines.append("}")
        return "\n".join(lines) + "\n"


def generate_program(seed):
    """One deterministic MiniOMP program for ``seed``."""
    return _Generator(random.Random(seed)).program()


def generate_nest_program(seed):
    """Like :func:`generate_program`, but with at least one perfect
    serial-outer / workshared-inner nest — the ``-O3`` fuzz corpus."""
    return _Generator(random.Random(seed), nests=True).program()


def generate_body_nest_program(seed):
    """One program of workshared loops with sequential inner control
    flow (:meth:`_Generator.body_nest`) — the region compiler's corpus."""
    return _Generator(random.Random(seed)).body_nest_program()


def generate_programs(count, base_seed=0):
    """``count`` deterministic programs, seeds ``base_seed..+count``."""
    return [generate_program(base_seed + i) for i in range(count)]
