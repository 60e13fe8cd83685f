"""Textual dump of IR modules and functions.

The format is stable and human-oriented; golden tests compare against it.
Example::

    func @main() -> void {
    entry:
      %0 = alloca int ; sum
      store 0, %0
      jump header
    header:
      ...
    }
"""

def print_function(function):
    """Return the textual form of one function."""
    params = ", ".join(f"%{a.name}: {a.type!r}" for a in function.args)
    lines = [f"func @{function.name}({params}) -> {function.return_type!r} {{"]
    for block in function.blocks:
        lines.append(f"{block.name}:")
        for inst in block.instructions:
            lines.append(f"  {inst.describe()}")
    lines.append("}")
    if function.loop_info:
        for header, loop in sorted(function.loop_info.items()):
            lines.append(
                f"; loop {header}: iv=%{loop.induction.uid} "
                f"lower={loop.lower.short()} upper={loop.upper.short()} "
                f"step={loop.step.short()}"
            )
    for annotation in function.annotations:
        lines.append(f"; {annotation.describe()}")
    return "\n".join(lines)


def print_module(module):
    """Return the textual form of a whole module."""
    lines = [f"; module {module.name}"]
    for name, gvar in module.globals.items():
        init = "" if gvar.initializer is None else f" = {gvar.initializer!r}"
        lines.append(f"global @{name}: {gvar.value_type!r}{init}")
    for function in module.functions.values():
        lines.append("")
        lines.append(print_function(function))
    return "\n".join(lines)
