"""Exception types shared across the package.

The handlers of cli.main map these onto the exit codes beside cli.EXIT:
usage and format problems (the ValueError subclasses) and a
ResourceLimitError exit 2, an exhausted node budget exits 3 (the search
is inconclusive, not refuted), and any other exception exits 4.
"""


class ParseError(ValueError):
    """A .dg or .parts file violated the format. Carries a 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class EdgeError(ValueError):
    """OrientedGraph refused an edge. Carries its 0-based position in the edge list."""

    def __init__(self, index, message):
        self.index = index
        super().__init__(message)


class PartError(ValueError):
    """Partition refused a part. Carries its 0-based position in the part list."""

    def __init__(self, index, message):
        self.index = index
        super().__init__(message)


class BudgetExceededError(Exception):
    """A backtracking search hit its node-expansion cap before finishing."""

    def __init__(self, budget, message="node budget exceeded"):
        self.budget = budget
        super().__init__(f"{message} (budget={budget})")


class ResourceLimitError(RuntimeError):
    """Copy enumeration grew past its hard cap, tiling.EDGE_CAP."""
