"""Seeded benchmark inputs: one workload per synthesis route.

Targets come from the benchmark's own ``random.Random``, never from
revsynth, and reach the program only as permutation text in the image-list
format (``perm <n>`` then the ``2**n`` images of 0, 1, 2, ...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    route: str  # "general", "even" or "conservative"
    width: int
    primitive: str  # the one gate kind the netlist may use
    pool: int  # targets every run compiles; primitive_gates.mean is over these


# Why each workload was chosen is recorded in BENCHMARK.json. In short:
# general-n4 is dominated by macro expansion, gate validation and netlist
# read; even-n4 is the only user of the even module; conservative-n8 runs
# only the FRED modules, so changes to the VTOF route should leave it
# unchanged. The even route runs at n=4, not n=5: an n=5 target takes 7-10 s
# to compile and check on a 2-core machine, too few per run to be steady.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("general-n4", "general", 4, "VTOF", 20),
        Workload("even-n4", "even", 4, "VTOF", 20),
        Workload("conservative-n8", "conservative", 8, "FRED", 12),
    )
}


def _is_odd(mapping: list[int]) -> bool:
    """Parity from the cycle count: a permutation of m points with c cycles
    is a product of m - c transpositions."""
    seen = [False] * len(mapping)
    cycles = 0
    for start in range(len(mapping)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = mapping[x]
    return (len(mapping) - cycles) % 2 == 1


def draw(rng: random.Random, route: str, width: int) -> list[int]:
    """One target permutation of ``0 .. 2**width - 1`` for ``route``."""
    size = 1 << width
    if route == "conservative":
        mapping = list(range(size))
        for weight in range(width + 1):
            states = [x for x in range(size) if x.bit_count() == weight]
            images = states[:]
            rng.shuffle(images)
            for x, y in zip(states, images):
                mapping[x] = y
        return mapping
    mapping = list(range(size))
    rng.shuffle(mapping)
    if route == "even" and _is_odd(mapping):
        mapping[0], mapping[1] = mapping[1], mapping[0]
    return mapping


def spec_text(mapping: list[int]) -> str:
    """Image-list permutation text, 16 images to a row."""
    width = len(mapping).bit_length() - 1
    rows = [f"perm {width}"]
    rows += [
        " ".join(str(y) for y in mapping[i:i + 16])
        for i in range(0, len(mapping), 16)
    ]
    return "\n".join(rows) + "\n"


def targets(workload: Workload, seed: int):
    """Endless, seed-determined stream of ``(mapping, spec_text)``."""
    rng = random.Random(f"{workload.name}/{seed}")
    while True:
        mapping = draw(rng, workload.route, workload.width)
        yield mapping, spec_text(mapping)


def expected_roles(workload: Workload) -> list[tuple[str, ...]]:
    """The line roles each route's contract allows, data lines first."""
    data = ("data",) * workload.width
    if workload.route == "general":
        return [data + ("borrowed",)]
    if workload.route == "even":
        return [data]
    return [data + ("ancilla0",), data + ("ancilla1",)]
