"""revsynth: reversible-logic synthesis over single-gate alphabets.

Compile n-bit reversible permutations into netlists over one primitive
gate — a variated Toffoli (VTOF) or a Fredkin gate (FRED) — while keeping
the extra-line budget minimal, and verify every emitted circuit by
exhaustive simulation.

Three synthesis routes:

- :func:`synth_general` — any permutation, VTOF netlist on n+1 lines with
  one borrowed line (restored whatever value it starts with);
- :func:`synth_even` — any even permutation, VTOF netlist on exactly n
  lines, nothing extra;
- :func:`synth_conservative` — any weight-preserving permutation, FRED
  netlist on n+1 lines with one constant ancilla line.

Verification (:func:`verify_realizes`) is exhaustive and role-aware:
ancilla lines are checked at their declared constant, borrowed lines over
both start values, and all must come back restored.
"""

from .analysis import (
    IndependenceResult,
    ParityVector,
    binom_mod2,
    ckswap_parity_formula,
    embedded_gate_permutation,
    embedded_parity,
    independence_check,
    parity_vector,
)
from .circuit import (
    Circuit,
    GateInstance,
    GateKind,
    LineRole,
    apply_gate,
    circuit_to_permutation,
    ckswap,
    cknot,
    cnot,
    fred,
    not_gate,
    simulate,
    swap,
    vtof,
)
from .errors import (
    DepthLimitError,
    InsufficientLinesError,
    NotConservativeError,
    OddPermutationError,
    RangeError,
    RevsynthError,
    UnexpandableMacroError,
    WidthMismatchError,
    WidthOutOfRangeError,
)
from .even import TokenPair, synth_even, synth_fused, synth_pair
from .expand import expand_macros
from .fredkin import synth_ckswap, synth_conservative
from .generators import TransformToken, decompose_generators
from .netlist import read_netlist, write_netlist
from .permutation import (
    MAX_WIDTH,
    MIN_WIDTH,
    Permutation,
    format_permutation,
    parse_permutation,
    sample_permutation,
)
from .toffoli import (
    synth_ccnot,
    synth_cknot,
    synth_cnot,
    synth_general,
    synth_not,
)
from .verify import SynthesisReport, verify_realizes
from .weights import bits, weight_decompose

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "DepthLimitError",
    "GateInstance",
    "GateKind",
    "IndependenceResult",
    "InsufficientLinesError",
    "LineRole",
    "MAX_WIDTH",
    "MIN_WIDTH",
    "NotConservativeError",
    "OddPermutationError",
    "ParityVector",
    "Permutation",
    "RangeError",
    "RevsynthError",
    "SynthesisReport",
    "TokenPair",
    "TransformToken",
    "UnexpandableMacroError",
    "WidthMismatchError",
    "WidthOutOfRangeError",
    "apply_gate",
    "binom_mod2",
    "bits",
    "circuit_to_permutation",
    "ckswap",
    "ckswap_parity_formula",
    "cknot",
    "cnot",
    "decompose_generators",
    "embedded_gate_permutation",
    "embedded_parity",
    "expand_macros",
    "format_permutation",
    "fred",
    "independence_check",
    "not_gate",
    "parity_vector",
    "parse_permutation",
    "read_netlist",
    "sample_permutation",
    "simulate",
    "swap",
    "synth_ccnot",
    "synth_cknot",
    "synth_ckswap",
    "synth_cnot",
    "synth_conservative",
    "synth_even",
    "synth_fused",
    "synth_general",
    "synth_not",
    "synth_pair",
    "verify_realizes",
    "vtof",
    "weight_decompose",
    "write_netlist",
]
