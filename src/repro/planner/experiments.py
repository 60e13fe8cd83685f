"""Row formatters for the paper's evaluation figures (§6).

The figures themselves are :class:`repro.Session` queries
(``session.options()`` for Fig. 13, ``session.critical_paths()`` for
Fig. 14); these helpers order their results the way the figures do.
"""


def format_fig13_row(report):
    """One printable row per abstraction (matches the figure's bars)."""
    order = ["OpenMP", "PDG", "J&K", "PS-PDG"]
    return {name: report.totals.get(name, 0) for name in order}


def format_fig14_row(results):
    order = ["PDG", "J&K", "PS-PDG"]
    return {name: results[name]["speedup"] for name in order}
