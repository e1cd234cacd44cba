"""Synapse circuits over the statevector engine.

The upstream state encodes per-link threshold-crossing probabilities as
squared amplitudes.  A classically-controlled NOT gates the upstream state
on the live membrane potential, and the downstream state relaxes toward
the upstream drive through explicit Euler steps of

    d psi_down / dt = i * lam * (g_leak/cm) * (v - v_rest) * e0 + psi_up

with renormalization after every step (the evolution is an open-system
sketch, not norm preserving).  Bidirectional circuits additionally feed a
feedback operator K of the downstream state into the upstream mix and
weight the combined upstream state back into the downstream one.

Feedback combinations that contribute an exactly-zero vector are skipped
bitwise, so a circuit with zero feedback reduces to the one-way pipeline
exactly, not merely approximately.

Signaling is modelled by color tags: per-component labels drawn from a
finite composition table (total, associative, with identity), used to
blank out blocked components.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .engine import (QuantumState, OperatorMatrix, all_finite, classically_controlled_not,
                     normalized, squared_norm)
from .errors import ConstraintViolationWarning, DegenerateEncodingError, UnknownTagError
from .lif import LifParams


# ---------------------------------------------------------------------------
# color-tag algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompositionTable:
    """Finite tag algebra: total, associative, with an identity element."""

    elements: tuple[str, ...]
    products: Mapping[tuple[str, str], str]

    def __post_init__(self):
        elems = tuple(self.elements)
        if len(set(elems)) != len(elems) or not elems:
            raise ValueError("elements must be nonempty and unique")
        prods = dict(self.products)
        for a in elems:
            for b in elems:
                c = prods.get((a, b))
                if c is None:
                    raise ValueError(f"composition table is not total: missing {a} o {b}")
                if c not in elems:
                    raise ValueError(f"product {a} o {b} = {c!r} is not an element")
        for a in elems:
            for b in elems:
                for c in elems:
                    if prods[(prods[(a, b)], c)] != prods[(a, prods[(b, c)])]:
                        raise ValueError(
                            f"composition table is not associative at ({a}, {b}, {c})"
                        )
        identity = None
        for e in elems:
            if all(prods[(e, x)] == x and prods[(x, e)] == x for x in elems):
                identity = e
                break
        if identity is None:
            raise ValueError("composition table has no identity element")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "products", prods)
        object.__setattr__(self, "_identity", identity)

    @property
    def identity(self) -> str:
        return self._identity

    def compose(self, a: str, b: str) -> str:
        for x in (a, b):
            if x not in self.elements:
                raise UnknownTagError(f"unknown tag {x!r}")
        return self.products[(a, b)]


def default_composition_table() -> CompositionTable:
    """Four-element commutative monoid: neutral identity, absorbing block,
    idempotent excite/inhibit whose mix blocks."""
    e, x, i, b = "neutral", "excite", "inhibit", "block"
    elems = (e, x, i, b)
    prods = {}
    for a in elems:
        prods[(e, a)] = a
        prods[(a, e)] = a
        prods[(b, a)] = b
        prods[(a, b)] = b
    prods[(x, x)] = x
    prods[(i, i)] = i
    prods[(x, i)] = b
    prods[(i, x)] = b
    return CompositionTable(elems, prods)


def load_composition_table(path: str | Path) -> CompositionTable:
    """Read a table file: header row of elements, then the full product grid."""
    lines = [ln.split() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty composition table")
    elems = tuple(lines[0])
    if len(lines) != len(elems) + 1:
        raise ValueError(f"{path}: expected {len(elems)} grid rows, found {len(lines) - 1}")
    prods = {}
    for r, row in enumerate(lines[1:]):
        if len(row) != len(elems):
            raise ValueError(f"{path}: grid row {r} has {len(row)} entries")
        for c, val in enumerate(row):
            prods[(elems[r], elems[c])] = val
    return CompositionTable(elems, prods)


@dataclass(frozen=True)
class TaggedState:
    """Quantum state with one color tag per basis component."""

    state: QuantumState
    tags: tuple[str, ...]

    def __post_init__(self):
        if len(self.tags) != self.state.dim:
            raise ValueError("tags length must equal the state dimension")
        object.__setattr__(self, "tags", tuple(self.tags))


def blocked_components(tags: Sequence[str], blocked: Iterable[str]) -> list[int]:
    """Indices of the components whose tag is in ``blocked``."""
    blocked_set = frozenset(blocked)
    return [k for k, tag in enumerate(tags) if tag in blocked_set]


def blanked(amps: list[complex], where: Sequence[int], message: str) -> list[complex]:
    """``amps`` with the components at ``where`` zeroed and the rest renormalized, or
    ``amps`` itself when those are already zero; raises ``message`` if nothing is left."""
    if not any(amps[k] for k in where):
        return amps
    out = amps.copy()
    for k in where:
        out[k] = 0j
    return normalized(out, message)


def gate_by_tag(tagged: TaggedState, blocked: Iterable[str]) -> TaggedState:
    """Zero every component whose tag is blocked, renormalize, keep tags.

    Bitwise idempotent: when no nonzero amplitude is affected the input is
    returned unchanged.
    """
    amps = tagged.state.amplitudes.tolist()
    out = blanked(amps, blocked_components(tagged.tags, blocked),
                  "every component is blocked by tag")
    if out is amps:
        return tagged
    return TaggedState(QuantumState(out, tagged.state.basis_labels), tagged.tags)


# ---------------------------------------------------------------------------
# circuit wiring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynapseCircuit:
    """Composed synapse circuit: dimensions, feedback operator, couplings.

    ``up_dim`` counts presynaptic links, ``down_dim`` postsynaptic ones.
    ``coupling`` maps upstream components into the downstream space (None
    means identity, which requires equal dimensions).  ``k_operator`` feeds
    the downstream state back into the upstream mix in bidirectional mode
    (None means no feedback); it must be declared hermitian or unitary and
    is verified at construction.  ``b_weights`` weight the combined upstream
    state into the next downstream state; when derived from downstream
    threshold probabilities their squared magnitudes equal those
    probabilities.  ``shutdown_links`` are zeroed before every measurement
    and must leave at least one downstream link live.
    """

    up_dim: int
    down_dim: int
    mode: str = "unidirectional"
    k_operator: OperatorMatrix | None = None
    coupling: np.ndarray | None = None
    drive_scale: float = 1.0
    b_weights: np.ndarray | None = None
    shutdown_links: tuple[int, ...] = ()
    up_prob_bound: float | None = None
    down_prob_bound: float | None = None

    def __post_init__(self):
        if self.up_dim < 1 or self.down_dim < 1:
            raise ValueError("up_dim and down_dim must be >= 1")
        if self.mode not in ("unidirectional", "bidirectional"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "bidirectional" and self.up_dim != self.down_dim:
            raise ValueError(
                "bidirectional mode feeds the downstream state into the upstream "
                f"space and requires equal dimensions, got {self.up_dim} != {self.down_dim}"
            )
        if not math.isfinite(self.drive_scale):
            raise ValueError(f"drive_scale must be finite, got {self.drive_scale}")
        if self.k_operator is not None:
            if self.k_operator.kind not in ("hermitian", "unitary"):
                raise ValueError("k_operator must be declared hermitian or unitary")
            if self.k_operator.dim != self.down_dim:
                raise ValueError(
                    f"k_operator dimension {self.k_operator.dim} != down_dim {self.down_dim}"
                )
        if self.coupling is not None:
            w = np.array(self.coupling, dtype=complex)
            if w.shape != (self.down_dim, self.up_dim):
                raise ValueError(
                    f"coupling must be {self.down_dim}x{self.up_dim}, got {w.shape}"
                )
            if not all_finite(w):
                raise ValueError("coupling entries must be finite")
            w.setflags(write=False)
            object.__setattr__(self, "coupling", w)
        if self.b_weights is not None:
            b = np.array(self.b_weights, dtype=complex)
            if b.shape != (self.down_dim,):
                raise ValueError(f"b_weights must have length {self.down_dim}")
            if not all_finite(b):
                raise ValueError("b_weights must be finite")
            b.setflags(write=False)
            object.__setattr__(self, "b_weights", b)
            if self.down_prob_bound is not None:
                total = squared_norm(b.tolist())
                if total > self.down_prob_bound:
                    warnings.warn(
                        f"total downstream probability {total:.6g} exceeds the "
                        f"configured bound {self.down_prob_bound}",
                        ConstraintViolationWarning,
                        stacklevel=2,
                    )
        shut = tuple(self.shutdown_links)
        for link in shut:
            if not 0 <= link < self.down_dim:
                raise ValueError(
                    f"shutdown_links {list(shut)}: link {link} out of range for "
                    f"{self.down_dim} downstream links"
                )
        if set(shut) >= set(range(self.down_dim)):
            raise ValueError(f"shutdown_links {list(shut)} cover every downstream link")
        object.__setattr__(self, "shutdown_links", shut)

    def check_up_probabilities(self, probabilities: Sequence[float]) -> None:
        """Warn (never raise) when the upstream probability sum exceeds its bound."""
        if self.up_prob_bound is not None:
            total = float(np.sum(probabilities))
            if total > self.up_prob_bound:
                warnings.warn(
                    f"total upstream probability {total:.6g} exceeds the "
                    f"configured bound {self.up_prob_bound}",
                    ConstraintViolationWarning,
                    stacklevel=2,
                )


def encode_amplitudes(probabilities: Sequence[float],
                      phases: Sequence[float] | None = None) -> list[complex]:
    """``encode_up``'s amplitudes sqrt(p_k / sum p) e^{i phase_k} as a list of complex."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("probabilities must be a nonempty vector")
    if not all(0.0 <= x <= 1.0 for x in p.tolist()):
        raise ValueError("probabilities must lie in [0, 1]")
    total = p.sum()
    if total == 0.0:
        raise DegenerateEncodingError("all encoding probabilities are zero")
    amps = np.sqrt(p / total).astype(complex)
    if phases is not None:
        ph = np.asarray(phases, dtype=float)
        if ph.shape != p.shape:
            raise ValueError("phases length must match probabilities")
        amps = amps * np.exp(1j * ph)
    return amps.tolist()


def encode_up(
    probabilities: Sequence[float],
    phases: Sequence[float] | None = None,
    labels: Sequence[str] | None = None,
) -> QuantumState:
    """Encode crossing probabilities as amplitudes sqrt(p_k / sum p) e^{i phase_k}.

    Raw probabilities need not sum to one; callers record the sum so the
    inputs stay recoverable from the normalized state.
    """
    return QuantumState.from_amplitudes(encode_amplitudes(probabilities, phases), labels)


def gate_up(
    state: QuantumState, v_now: float, v_thres: float, link_pair: tuple[int, int]
) -> QuantumState:
    """Controlled NOT on ``link_pair`` gated by a strict threshold comparison."""
    return classically_controlled_not(state, link_pair, v_now > v_thres)


# ---------------------------------------------------------------------------
# scalar circuit kernel
# ---------------------------------------------------------------------------
#
# The circuit runs on lists of Python complex values, and every value is
# formed by the same IEEE operations in the same order on every CPU:
#   - a real step scales as complex(dt, 0.0) * x, which is how numpy
#     multiplies a complex array by a real scalar;
#   - K @ down and coupling @ up sum each row's complex products from 0j
#     in column order, and b_weights * coupled is one complex product per
#     component; every product and sum is rounded on its own (Python never
#     fuses a multiply-add);
#   - a state is renormalized by engine.normalized: the squared norm is
#     summed in numpy's pairwise order, and the state is scaled as numpy
#     divides a complex vector by a real norm.
# Circuits without K, coupling or b_weights therefore give numpy's bytes,
# and circuits with them the unfused result, whatever FMA or BLAS kernel
# numpy would dispatch to on the host.


def _combine(base: list[complex], contribution: list[complex], message: str) -> list[complex]:
    """base + contribution, renormalized; ``base`` itself when the contribution is zero."""
    if not any(contribution):
        return base
    return normalized([a + b for a, b in zip(base, contribution)], message)


def _matvec(m: list[list[complex]], x: list[complex]) -> list[complex]:
    out = []
    for row in m:
        s = 0j
        for a, b in zip(row, x):
            s += a * b
        out.append(s)
    return out


def _euler_step(state: list[complex], drive: list[complex], dtc: complex, kick: complex,
                message: str) -> list[complex]:
    """One renormalized Euler step: ``state + dt*drive``, plus ``kick`` on component 0."""
    delta = [dtc * d for d in drive]
    delta[0] += kick
    return _combine(state, delta, message)


def _drive_rate(params: LifParams, drive_scale: float) -> complex:
    """i * drive_scale * g_leak/cm: the step's kick on component 0 is dt*(rate*(v - v_rest))."""
    return 1j * drive_scale * (params.g_leak / params.cm)


def _operands(circuit: SynapseCircuit):
    """(K, coupling, b_weights) of ``circuit`` as nested lists of complex, None where absent."""
    k = circuit.k_operator
    return (
        None if k is None else k.entries.tolist(),
        None if circuit.coupling is None else circuit.coupling.tolist(),
        None if circuit.b_weights is None else circuit.b_weights.tolist(),
    )


def _round_trip(up, down, dtc, kick, k, coupling, b):
    """Feedback mix, upstream drive step, downstream combination (see bidirectional_step)."""
    if k is not None:
        up = _combine(up, _matvec(k, down), "feedback mix collapsed to the zero state")
    up = _euler_step(up, down, dtc, kick, "upstream drive step collapsed to the zero state")
    if b is None:
        return up, down
    coupled = up if coupling is None else _matvec(coupling, up)
    return up, _combine(down, [w * c for w, c in zip(b, coupled)],
                        "downstream combination collapsed to the zero state")


def evolve_down(
    psi_down: QuantumState,
    psi_up: QuantumState | None,
    v_now: float,
    params: LifParams,
    drive_scale: float,
    dt: float,
) -> QuantumState:
    """One explicit Euler step of the downstream evolution, renormalized.

    ``psi_up`` may be None when no upstream drive exists; a step whose whole
    contribution is exactly zero returns the input unchanged.  First order
    by design: the upstream drive changes discontinuously at spike events,
    so higher-order smoothness assumptions do not hold.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if psi_up is None:
        drive = [0j] * psi_down.dim
    else:
        if psi_down.dim != psi_up.dim:
            raise ValueError(
                f"state dimensions differ: {psi_down.dim} != {psi_up.dim}; map the "
                "upstream state through the coupling first"
            )
        drive = psi_up.amplitudes.tolist()
    down = psi_down.amplitudes.tolist()
    kick = dt * (_drive_rate(params, drive_scale) * (v_now - params.v_rest))
    out = _euler_step(down, drive, complex(dt, 0.0), kick,
                      "downstream evolution step collapsed to the zero state")
    if out is down:
        return psi_down
    return QuantumState(out, psi_down.basis_labels)


def _check_circuit_states(circuit: SynapseCircuit, up: Sequence[complex],
                          down: Sequence[complex], dt: float) -> None:
    if len(up) != circuit.up_dim or len(down) != circuit.down_dim:
        raise ValueError("state dimensions do not match the circuit")
    if dt <= 0:
        raise ValueError("dt must be > 0")


def bidirectional_step(
    circuit: SynapseCircuit,
    psi_up: QuantumState,
    psi_down: QuantumState,
    v_now: float,
    params: LifParams,
    dt: float,
) -> tuple[QuantumState, QuantumState]:
    """One feedback round trip; returns the combined (upstream, downstream) pair.

    Three stages, each renormalized, each raising with its own name when it
    collapses: the feedback mix adds K applied to the downstream state into
    the upstream one; the upstream drive step advances that mix one Euler
    step driven by the downstream state; the downstream combination adds the
    weighted, coupled upstream result back onto the downstream state.  A
    stage whose contribution is exactly zero is skipped bitwise.
    """
    if circuit.mode != "bidirectional":
        raise ValueError("circuit is not bidirectional")
    _check_circuit_states(circuit, psi_up.amplitudes, psi_down.amplitudes, dt)
    down = psi_down.amplitudes.tolist()
    kick = dt * (_drive_rate(params, circuit.drive_scale) * (v_now - params.v_rest))
    up, down2 = _round_trip(psi_up.amplitudes.tolist(), down, complex(dt, 0.0), kick,
                            *_operands(circuit))
    psi_up2 = QuantumState(up, psi_up.basis_labels)
    if down2 is down:
        return psi_up2, psi_down
    return psi_up2, QuantumState(down2, psi_down.basis_labels)


def run_circuit(
    circuit: SynapseCircuit,
    up: list[complex],
    down: list[complex],
    potentials: Sequence[float],
    params: LifParams,
    dt: float,
    gate_pair: tuple[int, int] | None = None,
) -> tuple[list[complex], list[complex]]:
    """Step the circuit once per membrane potential; returns (up_record, down).

    States are normalized amplitude lists.  Each step swaps ``gate_pair`` of
    the upstream state when the potential is above threshold (the swap
    persists), drives the downstream state with the coupled, normalized
    upstream state for one Euler step, and in bidirectional mode runs the
    feedback round trip.  ``up_record`` is the round trip's combined upstream
    state, or the gated encoding in one-way mode; the next step keeps the
    gated encoding either way.  The loop runs in the fixed order described
    above ``_combine``.
    """
    _check_circuit_states(circuit, up, down, dt)
    if circuit.coupling is None and circuit.up_dim != circuit.down_dim:
        raise ValueError("a circuit without coupling needs equal dimensions")
    if gate_pair is not None:
        i, j = gate_pair
        if i == j or not (0 <= i < circuit.up_dim and 0 <= j < circuit.up_dim):
            raise ValueError(f"gate_pair {gate_pair} invalid for dimension {circuit.up_dim}")
    bidirectional = circuit.mode == "bidirectional"
    k, coupling, b = _operands(circuit)
    dtc = complex(dt, 0.0)
    rate = _drive_rate(params, circuit.drive_scale)
    v_rest, v_thres = params.v_rest, params.v_thres
    record = up
    for v_now in np.asarray(potentials, dtype=float).tolist():
        if gate_pair is not None and v_now > v_thres:
            up = up.copy()
            up[i], up[j] = up[j], up[i]
        drive = up if coupling is None else normalized(
            _matvec(coupling, up), "coupled drive collapsed to the zero state")
        kick = dt * (rate * (v_now - v_rest))
        down = _euler_step(down, drive, dtc, kick,
                           "downstream evolution step collapsed to the zero state")
        if bidirectional:
            record, down = _round_trip(up, down, dtc, kick, k, coupling, b)
        else:
            record = up
    return record, down


def shutdown_link(state: QuantumState, link: int) -> QuantumState:
    """Force one component to exactly zero and renormalize the rest."""
    if not 0 <= link < state.dim:
        raise ValueError(f"link {link} out of range for dimension {state.dim}")
    amps = state.amplitudes.tolist()
    out = blanked(amps, (link,), f"link {link} is the only nonzero component")
    return state if out is amps else QuantumState(out, state.basis_labels)
