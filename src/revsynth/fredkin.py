"""FRED-alphabet synthesis: conservative permutations over Fredkin gates.

A conservative (weight-preserving) permutation is built class by class,
on state integers throughout: one weight-class pass groups the states,
and within each Hamming-weight class any permutation is a product of
transpositions. Each transposition (a b) of weight-k states at Hamming
distance 2d is a conjugation (after Shende, Prasad, Markov and Hayes,
*Synthesis of reversible logic circuits*, IEEE TCAD 2003): d-1 plain
Fredkin gates walk ``a`` to a neighbour of ``b`` without moving ``b``, one
C^(k-1)SWAP exchanges that neighbour with ``b``, and the walk runs back.
Each multi-controlled swap lowers to plain Fredkin gates against one extra
line, which with the last control forms a borrowed pair of opposite-valued
lines. Under such a pair the controls split in half (after Barenco et al.,
*Elementary gates for quantum computation*, 1995, Cor. 7.4): one half
swaps the pair, the other half swaps the targets, and each recursive call
borrows lines of its caller, so a single extra line serves any control
count. A C^kSWAP against a 0 ancilla is 10, 12, 42, 102, 162, 282 gates at
k=3..8: the size grows about as k^2, where peeling one control at a time
grew 4x per control. Against a 1 ancilla the last two controls fold into
the pair: 15, 17, 57, 119, 219, 401 gates at k=3..8,
T1(k) = T1(k-2) + S(k-2) + 2 from k=4. ``ckswap_fred_with_ancilla`` builds
each (k, ancilla value) once on canonical lines and relabels it once per
choice of lines, kept in a bounded cache.

The stage plan is in macro gates, and ``synth_conservative`` lowers each
C^kSWAP centre as it assembles the netlist, against the ancilla on line
n+1, so it builds no macro circuit and never calls ``expand_macros``; that
stays the public lowering of macro netlists.
``ckswap_fred_with_ancilla`` returns its block as its distinct gates plus
the order they play in. ``synth_conservative`` numbers each block's
distinct gates, and each walk FRED, into one table of the netlist's
distinct gates, extends the netlist's order with the block's order mapped
through those numbers, and hands both to ``Circuit.from_table``, so only
the few distinct gates of each block are hashed, not every emitted gate.
The lines of a state's set bits come from a table per width
(``_line_table``), built on first use.
"""

from __future__ import annotations

import functools

from .circuit import (
    FRED,
    Circuit,
    GateInstance,
    GateNumbering,
    LineRole,
    apply_gates_bitsliced,
    ckswap,
    fred,
    initial_line_masks,
    play,
)
from .errors import DepthLimitError, RangeError, WidthOutOfRangeError
from .permutation import Permutation, transpositions
from .weights import weight_decompose

CKSWAP_MAX_CONTROLS = 8
CONSERVATIVE_MIN_WIDTH = 3
CONSERVATIVE_MAX_WIDTH = 12


# One object per FRED line triple; at most 16*15*14 keys under the width cap.
_interned_fred = functools.cache(fred)


@functools.cache
def _line_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Entry x holds the lines of the set bits of ``x``, ascending (line l
    is bit n - l), for every ``n``-bit x: at most 4 096 tuples under the
    width cap, built on first use."""
    table: list[tuple[int, ...]] = [()]
    for bit in range(n):
        # States with top bit ``bit`` put its line ahead of the lower bits'.
        head = (n - bit,)
        table += [head + rest for rest in table]
    return tuple(table)


def _transposition_gates(a: int, b: int, n: int) -> tuple[GateInstance, ...]:
    """Macro fragment for the transposition (a b) of the equal-weight,
    distinct ``n``-bit states ``a`` and ``b`` (line l carries bit n - l).

    S lists the lines where ``a`` is 1 and ``b`` is 0, M those where ``a``
    is 0 and ``b`` is 1, both ascending. FRED(S[0], S[i], M[i]) for i >= 1
    moves ``a`` one step and never moves ``b``, which is 0 on S[0]. The
    centre C^(k-1)SWAP controls on the one-lines the walked ``a`` shares
    with ``b`` (those of ``b`` but M[0], as the two differ only on S[0]
    and M[0]) and swaps S[0] with M[0]; the walk then runs back. At
    Hamming distance 2d that is 2d-1 gates, one of them a CKSWAP. Classes
    below weight k are never touched; heavier classes may move (the stage
    plan corrects for that).
    """
    lines = _line_table(n)
    s = lines[a & ~b]
    m = lines[b & ~a]
    walk = tuple(_interned_fred(s[0], s[i], m[i]) for i in range(1, len(s)))
    controls = lines[b ^ 1 << (n - m[0])]
    centre = ckswap(controls, min(s[0], m[0]), max(s[0], m[0]))
    return walk + (centre,) + walk[::-1]


def _merged_ckswap(
    controls: tuple[int, ...],
    targets: tuple[int, int],
    pair: tuple[int, int],
) -> list[GateInstance]:
    """FRED gates for a C^kSWAP of ``targets`` under ``controls``,
    against a borrowed ``pair`` of two further lines.

    Exact C^kSWAP when the pair lines hold opposite values (controls and
    pair restored, either orientation); the identity on every line when
    they hold equal values. k=1 is a bare FRED and ignores the pair.

    k=2 is five gates routed through x, then the same five through y, so
    the halves cancel whenever the pair is equal. From k=3 the controls split
    in half, after Barenco et al., *Elementary gates for quantum
    computation* (1995), Cor. 7.4, with the pair as a dual-rail bit x:
    ``toggle`` swaps the pair under the head controls, borrowing the
    targets; ``use`` swaps the targets under the rest, x and head[0],
    borrowing (y, head[0]), which differ whenever x = 1 and head[0] = 1.
    toggle, use, toggle, use fires ``use`` once iff the head is all 1, and
    twice or never otherwise. An equal pair makes both toggles idle and
    the two uses cancel. S(k) = 2 S(ceil(k/2)) + 2 S(floor(k/2) + 1)
    gates: 10, 40, 100, 160, 280, 400, 520 at k=2..8.
    """
    if len(controls) == 1:
        return [fred(controls[0], targets[0], targets[1])]
    x, y = pair
    if len(controls) == 2:
        t1, t2 = targets
        steer_x = fred(x, controls[0], y)
        steer_y = fred(y, controls[0], x)
        move = fred(controls[1], t1, t2)
        via_x = fred(controls[0], controls[1], x)
        via_y = fred(controls[0], controls[1], y)
        return [
            steer_x, via_x, move, via_x, steer_x,
            steer_y, via_y, move, via_y, steer_y,
        ]
    half = (len(controls) + 1) // 2
    head, rest = controls[:half], controls[half:]
    toggle = _merged_ckswap(head, pair, targets)
    use = _merged_ckswap(rest + (x,), targets, (y, head[0]))
    return toggle + use + toggle + use


def ckswap_fred_with_ancilla(
    controls: tuple[int, ...],
    targets: tuple[int, int],
    ancilla_line: int | None,
    ancilla_value: int,
) -> tuple[tuple[GateInstance, ...], tuple[int, ...]]:
    """Lower a multi-controlled swap to FRED gates against one ancilla
    line whose starting value is known.

    Exact on the subspace where the ancilla holds ``ancilla_value``
    (restored there). At k=3 the last control and the ancilla are the
    borrowed pair of one C^2SWAP, which swaps iff the other controls P are
    all 1 and the last control differs from the ancilla: the whole C^3SWAP
    for a 0 ancilla; under a 1 it fires on P and not c3, and a C^2SWAP
    tail adds P. At k=2 a one-control lowering would ignore its pair, so
    the product is parked on the ancilla around one swap from it.
    From k=4 a 0 ancilla parks too: FRED(c1, c2, z) leaves z = c1 and c2,
    and c2 = 0 wherever z = 1, so (c_k, c2) pairs a C^(k-2)SWAP on z and
    c3..c_(k-1), 2 + S(k-2) gates. From k=4 a 1 ancilla folds the last
    two controls u, v into a pair instead: with z = 1, FRED(u, v, z)
    leaves u and z different exactly when not (u and v), so a head-only
    tail that fires on h = c1..c_(k-2), then a C^(k-2)SWAP on h paired on
    (u, z) between two such FREDs, which fires on h and not (u and v),
    together fire on h, u and v. Gates at k=2..8: 3, 10, 12, 42, 102,
    162, 282 against 0; 5, 15, 17, 57, 119, 219, 401 against 1,
    T1(k) = T1(k-2) + S(k-2) + 2 from k=4 (T1(3) = S(2) + T1(2); at k=2
    the extra fire gives 3 + 1 + 1).

    The lowering treats its lines as labels only, so it is built once per
    (k, ancilla value) on canonical lines and renamed onto the lines of a
    call: the few distinct gates of that block, as interned FREDs. The
    block is returned in that form: its distinct gates in order of first
    use, and the index among them of each gate it plays, so the gate list
    is ``circuit.play(distinct, order)``. Both are tuples, and the renamed
    block is kept per line choice (``_renamed_block``), so a repeated
    C^kSWAP costs one lookup. k=1 is a bare FRED that never reads the
    ancilla, so ``ancilla_line`` may be ``None`` there.
    """
    return _renamed_block((*controls, *targets, ancilla_line), ancilla_value)


# A weight-class plan at n=8 draws its centres from under 1 800 (controls,
# targets) choices, times two ancilla values; a block is a few hundred
# bytes, its order shared with ``_ckswap_shape``.
@functools.lru_cache(maxsize=4096)
def _renamed_block(
    lines: tuple[int | None, ...], ancilla_value: int
) -> tuple[tuple[GateInstance, ...], tuple[int, ...]]:
    """``ckswap_fred_with_ancilla`` on ``lines`` (controls, targets,
    ancilla): the canonical block of its shape with each line renamed."""
    triples, order = _ckswap_shape(len(lines) - 3, ancilla_value)
    distinct = tuple(_interned_fred(lines[c], lines[a], lines[b]) for c, a, b in triples)
    return distinct, order


@functools.cache
def _ckswap_shape(
    k: int, ancilla_value: int
) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    """The lowering that ``ckswap_fred_with_ancilla`` describes, built for
    (k, ancilla value) on canonical lines 1..k+3 (controls, targets,
    ancilla): its distinct line triples as 0-based positions in that line
    list, and the order in which they play. A 1-valued tail recurses
    through the public name, so it is relabelled from its own shape. Keys
    are bounded by the width cap and values are immutable, so one cache
    serves the whole process."""
    controls = tuple(range(1, k + 1))
    targets = (k + 1, k + 2)
    ancilla_line = k + 3
    fire = fred(ancilla_line, targets[0], targets[1])
    if k == 1:
        gates = (fred(controls[0], targets[0], targets[1]),)
    elif k == 0:
        if ancilla_value == 0:
            raise RangeError("an unconditional swap needs a 1-valued ancilla")
        gates = (fire,)
    elif k >= 4 and ancilla_value == 1:
        head, (u, v) = controls[:-2], controls[-2:]
        fold = fred(u, v, ancilla_line)
        gates = (
            *play(*ckswap_fred_with_ancilla(head, targets, ancilla_line, 1)),
            fold,
            *_merged_ckswap(head, targets, (u, ancilla_line)),
            fold,
        )
    else:
        park = fred(controls[0], controls[1], ancilla_line)
        if k == 2:
            # A 1-valued park fires on not (c1 and not c2); one more fire
            # leaves c1 and not c2, as the unparked k=3 form fires.
            gates = (park, fire, park) + (fire,) * ancilla_value
        elif k >= 4:
            pair = (controls[-1], controls[1])
            inner = (ancilla_line,) + controls[2:-1]
            gates = (park, *_merged_ckswap(inner, targets, pair), park)
        else:
            pair = (controls[-1], ancilla_line)
            gates = tuple(_merged_ckswap(controls[:-1], targets, pair))
        if ancilla_value == 1:
            gates += play(
                *ckswap_fred_with_ancilla(controls[:-1], targets, ancilla_line, 1)
            )
    slots: dict[tuple[int, ...], int] = {}
    order = tuple(slots.setdefault(g.lines, len(slots)) for g in gates)
    return tuple((c - 1, a - 1, b - 1) for c, a, b in slots), order


def synth_ckswap(k: int) -> Circuit:
    """Primitive FRED circuit for the C^kSWAP on k+3 lines: k controls,
    two targets, one ancilla fixed at 0 (k=1 is a single Fredkin gate on
    3 lines, no ancilla). k=3 is one C^2SWAP on the first two controls,
    paired on line 3 and the ancilla (10 gates); from k=4 the first two
    controls are parked on the ancilla around one C^(k-2)SWAP, 2 + S(k-2)
    gates: 12, 42, 102, 162, 282 at k=4..8.
    """
    if k < 1:
        raise RangeError(f"control count must be at least 1, got {k}")
    if k > CKSWAP_MAX_CONTROLS:
        raise DepthLimitError(
            f"control count capped at {CKSWAP_MAX_CONTROLS}, got {k}"
        )
    if k == 1:
        return Circuit(3, (fred(1, 2, 3),))
    controls = tuple(range(1, k + 1))
    targets = (k + 1, k + 2)
    ancilla = k + 3
    distinct, order = ckswap_fred_with_ancilla(controls, targets, ancilla, 0)
    roles = (LineRole.DATA,) * (k + 2) + (LineRole.ANCILLA0,)
    return Circuit.from_table(k + 3, distinct, order, roles)


def conservative_stage_plan(
    p: Permutation,
) -> list[tuple[int, tuple[GateInstance, ...]]]:
    """Macro gate plan for a conservative permutation, one entry per
    weight class in ascending order.

    One :func:`weight_decompose` pass checks ``p`` and groups its states
    by weight. Stage k synthesizes the correction on the weight-k class:
    each weight-k state ``s`` sits at ``image[s]`` after the earlier
    stages (their gates spill into higher classes), and the stage moves it
    on to ``p(s)``. The correction's transpositions come from the cycle
    walker over state integers, so each stage's pairs are in ascending
    numeric order. Bitsliced line masks, which every stage's gates advance
    in one pass, hold where each state is; a stage reads the images of its
    own class only, bit s of each line's mask, so each state is read back
    once per plan rather than once per stage. Because stage-k gates never
    touch classes below k, each stage locks in all classes up to its own
    weight.
    """
    n = p.width
    mapping = p.mapping
    classes = weight_decompose(p)  # raises NotConservativeError
    masks = initial_line_masks(n)
    plan: list[tuple[int, tuple[GateInstance, ...]]] = []
    for k in range(1, n):
        line_masks = masks[1:]
        correction = list(range(1 << n))
        for s in classes[k]:
            image = 0
            for mask in line_masks:
                image = image << 1 | mask >> s & 1
            correction[image] = mapping[s]
        stage: list[GateInstance] = []
        for a, b in transpositions(correction):
            stage.extend(_transposition_gates(a, b, n))
        apply_gates_bitsliced(stage, masks, n)
        plan.append((k, tuple(stage)))
    return plan


def synth_conservative(p: Permutation) -> Circuit:
    """Compile a conservative permutation to a FRED netlist on
    ``width + 1`` lines, the last line a single ancilla.

    The ancilla is declared at 0 whenever the target fixes every weight-1
    string (then no gate ever needs to move a lone 1, and the 0-routed
    swap lowering applies throughout). Otherwise it is declared at 1: a
    weight-1 data state plus a 0 ancilla has global weight 1, and no
    Fredkin circuit moves such a state at all, so those targets are only
    reachable against a 1-valued ancilla.

    The netlist is assembled in one walk over the stage plan: each FRED
    is kept and each C^kSWAP centre is lowered in place by
    ``ckswap_fred_with_ancilla`` against line ``width + 1`` and its
    declared value, looked up in this module on each call so that a
    wrapper installed there runs. That is the gate list
    ``expand_macros(..., "FRED")`` gives for the plan's macro circuit,
    built without one; the only ``Circuit`` is the netlist, built with
    ``Circuit.from_table``. Each walk FRED and each distinct gate of a
    block is numbered into the netlist's table of distinct gates, in
    first-seen order, and the block's order plays those numbers in one
    C-level pass (``circuit.play``).
    """
    n = p.width
    if not CONSERVATIVE_MIN_WIDTH <= n <= CONSERVATIVE_MAX_WIDTH:
        raise WidthOutOfRangeError(
            f"conservative synthesis supports widths "
            f"{CONSERVATIVE_MIN_WIDTH}..{CONSERVATIVE_MAX_WIDTH}, got {n}"
        )
    plan = conservative_stage_plan(p)
    class_one_fixed = all(p(1 << i) == 1 << i for i in range(n))
    value = 0 if class_one_fixed else 1
    ancilla = n + 1
    lower = ckswap_fred_with_ancilla
    # Its keys, in order, are the netlist's table of distinct gates.
    index = GateNumbering()
    number = index.__getitem__
    order: list[int] = []
    for _, stage in plan:
        for gate in stage:
            kind, lines = gate
            if kind is FRED:
                order.append(number(gate))
            else:
                distinct, local = lower(lines[:-2], lines[-2:], ancilla, value)
                order += play(list(map(number, distinct)), local)
    role = LineRole.ANCILLA1 if value else LineRole.ANCILLA0
    return Circuit.from_table(
        n + 1, tuple(index), order, (LineRole.DATA,) * n + (role,)
    )
