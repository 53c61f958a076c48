"""Defaults that the library and the command-line parser share.

``betti``, ``families`` and ``checks`` import them from here, so that
building the parser loads none of those modules.
"""

DEFAULT_CHARACTERISTIC = 32003
DEFAULT_SEED = 0x5EED5EED5EED5EED
DEFAULT_NODE_BUDGET = 10_000_000  # nodes of one linear-quotients search
DEFAULT_RANDOM_IDEALS = 500  # ideals of the ratliff-random check
DEFAULT_RANDOM_GRAPHS = 1000  # graphs of the matching-chain-random check

FAMILY_HELP = (
    "exhaustive-N (all graphs with <= N vertices), trees-N, forests-N, "
    "random-N-COUNT (seeded random graphs with <= N vertices, N <= 64), "
    "builtin (the bundled example graphs), or graph6:PATH / a graph file path"
)
