"""Independent check of netlist text against a target permutation.

This module does not import revsynth. It reads the netlist format (``lines``,
``role``, ``VTOF``, ``FRED`` statements; ``#`` starts a comment) and applies
the gates bitsliced: one Python integer per line holds that line's value in
every start state at once. Gate semantics follow the paper:

* ``VTOF c i t`` XORs ``c AND i`` (before the flip) into ``t``, then flips ``i``;
* ``FRED c a b`` swaps ``a`` and ``b`` where ``c`` is 1.

Lines are MSB-first (line 1 is the high bit of a state). A netlist realizes
a target when, on every start state with each ancilla line at its constant
(borrowed lines take both values), the data lines map through the target
and every non-data line ends where it started.
"""

from __future__ import annotations

import io

_ROLES = ("data", "ancilla0", "ancilla1", "borrowed")


def _line_masks(width: int) -> list[int]:
    """``masks[l]`` has bit ``s`` set iff line ``l`` is 1 in state ``s``."""
    masks = [0] * (width + 1)
    for line in range(1, width + 1):
        shift = width - line
        masks[line] = sum(1 << s for s in range(1 << width) if (s >> shift) & 1)
    return masks


def realizes(netlist: str, mapping: list[int], gate: str) -> bool:
    """True iff ``netlist`` uses only ``gate`` (``"VTOF"`` or ``"FRED"``)
    and realizes ``mapping`` on its data lines under the role contract.
    Raises ``ValueError`` or ``IndexError`` on text it cannot read."""
    width = None
    roles: dict[int, str] = {}
    masks: list[int] = []
    full = 0
    for raw in io.StringIO(netlist):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        op = words[0]
        if op in ("VTOF", "FRED") and op != gate:
            return False
        if op == "VTOF":
            c, i, t = int(words[1]), int(words[2]), int(words[3])
            masks[t] ^= masks[c] & masks[i]
            masks[i] ^= full
        elif op == "FRED":
            c, a, b = int(words[1]), int(words[2]), int(words[3])
            d = masks[c] & (masks[a] ^ masks[b])
            masks[a] ^= d
            masks[b] ^= d
        elif op == "lines" and width is None:
            width = int(words[1])
            masks = _line_masks(width)
            full = (1 << (1 << width)) - 1
        elif op == "role" and words[2] in _ROLES:
            roles[int(words[1])] = words[2]
        else:
            raise ValueError(f"unexpected netlist statement {raw.strip()!r}")
    if width is None or sorted(roles) != list(range(1, width + 1)):
        raise ValueError("netlist header is incomplete")
    data = [l for l in range(1, width + 1) if roles[l] == "data"]
    if 1 << len(data) != len(mapping):
        return False
    for s in range(1 << width):
        if any(
            (s >> (width - l)) & 1 != (roles[l] == "ancilla1")
            for l in roles
            if roles[l].startswith("ancilla")
        ):
            continue
        x = 0
        for l in data:
            x = (x << 1) | ((s >> (width - l)) & 1)
        y = mapping[x]
        for l in range(1, width + 1):
            if roles[l] == "data":
                want = (y >> (len(data) - 1 - data.index(l))) & 1
            else:
                want = (s >> (width - l)) & 1
            if (masks[l] >> s) & 1 != want:
                return False
    return True
