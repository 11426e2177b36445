"""Pieces shared by the workloads: seeded item streams and check failures."""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np


class CheckFailure(AssertionError):
    """An output of cdconf disagreed with the benchmark's own computation."""


def require(ok, message):
    if not ok:
        raise CheckFailure(message)


def item_rng(seed: int, stream: str, k: int) -> np.random.Generator:
    """Generator for item k of a named stream: the same (seed, stream, k)
    always yields the same item, whatever was drawn before it."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode()), k])


def rand_unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def rand_imag_unit(rng, dim):
    v = rng.normal(size=dim)
    v[0] = 0.0
    return v / np.linalg.norm(v)


MAX_DRAWS = 10_000


class GenerationError(RuntimeError):
    """No admissible input was found within MAX_DRAWS draws."""


def draw(make, accept):
    """Draw with make() until accept() holds; at most MAX_DRAWS times."""
    for _ in range(MAX_DRAWS):
        x = make()
        if accept(x):
            return x
    raise GenerationError("no admissible input found")


def in_plane(a0, m, x, y):
    """The point a0 + x + y M of a loop's plane, as coefficients."""
    out = np.array(a0, dtype=float, copy=True)
    out[0] += x
    return out + y * np.asarray(m)


class Workload:
    """One workload: a seeded, endless stream of items.

    ``item(k)`` builds the k-th input from the seed alone; ``run`` does the
    timed cdconf work on it and returns its outputs; ``check`` compares
    those outputs with the benchmark's own computations and raises
    CheckFailure on a mismatch.  ``round_size`` items form one round; a
    run always attempts whole rounds.  ``failed`` is true for an item that
    fails by a known fault of the program: it is counted, not checked.
    """

    name = ""
    round_size = 1
    warmup_ks = ()  # item indices (within a round) of the warm-up items
    work_in_children = False

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = Path(root)

    def make_item(self, rng, k: int):
        raise NotImplementedError

    def item(self, k: int):
        return self.make_item(item_rng(self.seed, self.name, k), k)

    def warmup_items(self):
        """Items of a separate stream, run untimed before the timed part."""
        return [self.make_item(item_rng(self.seed, self.name + "/warmup", k), k)
                for k in self.warmup_ks]

    def run(self, item, wrap):
        """Timed work; every map handed to cdconf goes through wrap()."""
        raise NotImplementedError

    def check(self, item, out):
        raise NotImplementedError

    def failed(self, item, out) -> bool:
        return False
