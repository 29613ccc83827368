"""Exact engine for Bulgarian solitaire orbits and their rational limits.

OrbitCapped lives here, not in orbit, so that the command line can map it
to a report without importing the census layer.
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
