"""Exception types shared across the toolkit."""


class PolyseqError(Exception):
    """Base class for all toolkit errors."""


class LexError(PolyseqError):
    """Illegal character encountered while tokenizing a P-SMILES string."""


class ParseError(PolyseqError):
    """Structurally invalid P-SMILES (brackets, branches, rings, stars)."""


class DisconnectedError(PolyseqError):
    """Graph is not connected where a connected graph is required."""


class BudgetExceeded(PolyseqError):
    """Canonical labelling aborted: its search passed the leaf budget, or
    went deeper than the interpreter's recursion limit."""
