"""Exact engine for Bulgarian solitaire orbits and their rational limits.

Its two library errors, OrbitCapped and NonClosingError, live here so that
the command line can report them without importing the layers that raise them.
"""

__version__ = "0.1.0"


class OrbitCapped(RuntimeError):
    """A census hit its state budget before exhausting the orbit.

    Carries the completed level sizes so callers can report partial
    progress; the sizes are correct as far as they go.
    """

    def __init__(self, word: str, power: int, max_states: int, sizes: list[int]):
        self.word = word
        self.power = power
        self.max_states = max_states
        self.sizes = sizes
        super().__init__(
            f"orbit of {word}^{power} exceeds the {max_states}-state budget "
            f"({len(sizes)} levels completed)"
        )


class NonClosingError(RuntimeError):
    """A branch of the degenerate expansion never reached a recurrent board."""

    def __init__(self, word: str, root: int, branch: tuple[int, ...]):
        self.word = word
        self.root = root
        self.branch = branch
        moves = ", ".join(str(j) for j in branch)
        super().__init__(
            f"forest of {word} does not close: root {root + 1}, branch R[{moves}]"
        )
