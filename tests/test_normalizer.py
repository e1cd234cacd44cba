"""The one normalizer, held bitwise to the numpy spelling it replaced.

Every state in the package is normalized by ``engine.normalized`` on
Python complex values.  The oracle below is the numpy path that it
replaced: ``np.sum(re**2 + im**2)``, a complex array divided by
``np.sqrt`` of that sum, and ``_blank``, which zeroed the components under
an index or a boolean mask before renormalizing.  Dimensions run from 1 to
300, so every branch of ``_pairwise_sum`` runs: the plain sum below 8
elements, the eight accumulators up to 128 and the recursive halves above.
"""

import numpy as np
import pytest

from qsynapse import (
    DegenerateStateError,
    OperatorMatrix,
    QuantumState,
    SynapseCircuit,
    TaggedState,
    apply_operator,
    default_composition_table,
    encode_up,
    gate_by_tag,
    shutdown_link,
)
from qsynapse import calibration
from qsynapse.engine import MAX_OPERATOR_DIM

DIMS = range(1, 301)
TAGS = default_composition_table().elements


def numpy_normalized(amps):
    return amps / np.sqrt(np.sum(amps.real**2 + amps.imag**2))


def numpy_blank(amps, where, message):
    if not amps[where].any():
        return amps
    out = amps.copy()
    out[where] = 0.0
    if not out.any():
        raise DegenerateStateError(message)
    return numpy_normalized(out)


def random_amplitudes(rng, dim):
    """A normalized state of which about a fifth of the components are exactly zero."""
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps[rng.random(dim) < 0.2] = 0.0
    if not amps.any():
        amps[rng.integers(dim)] = 1.0
    return numpy_normalized(amps)


def draws():
    """(dimension, draw index, rng) for three draws of every dimension."""
    for dim in DIMS:
        for k in range(3):
            yield dim, k, np.random.default_rng([dim, k])


def oracle(fn, *args):
    """``fn(*args)``, or the message of the DegenerateStateError it raises."""
    try:
        return fn(*args)
    except DegenerateStateError as err:
        return str(err)


def random_blocking(rng, dim):
    """Random tags for ``dim`` components and up to two blocked tags."""
    tags = tuple(rng.choice(TAGS, dim).tolist())
    return tags, tuple(rng.choice(TAGS, int(rng.integers(0, 3)), replace=False).tolist())


def test_shutdown_link_and_gate_by_tag_match_numpy_blank():
    for dim, k, rng in draws():
        amps = random_amplitudes(rng, dim)
        state = QuantumState(amps, tuple(map(str, range(dim))))

        link = int(rng.integers(dim))
        want = oracle(numpy_blank, amps, link, f"link {link} is the only nonzero component")
        if isinstance(want, str):
            with pytest.raises(DegenerateStateError, match=want):
                shutdown_link(state, link)
        else:
            got = shutdown_link(state, link)
            assert got.amplitudes.tobytes() == want.tobytes(), (dim, k)
            assert (got is state) == (want is amps), (dim, k)

        tags, blocked = random_blocking(rng, dim)
        mask = np.array([tag in blocked for tag in tags])
        want = oracle(numpy_blank, amps, mask, "every component is blocked by tag")
        tagged = TaggedState(state, tags)
        if isinstance(want, str):
            with pytest.raises(DegenerateStateError, match=want):
                gate_by_tag(tagged, blocked)
        else:
            got = gate_by_tag(tagged, blocked)
            assert got.state.amplitudes.tobytes() == want.tobytes(), (dim, k)
            assert (got is tagged) == (want is amps), (dim, k)


def test_readout_blanks_match_numpy_blank(monkeypatch):
    """The state readout measures: each shutdown link blanked in turn, then the blocked tags."""
    measured = []

    def capture(state, shots, seed):
        measured.append(state)
        return {label: 0 for label in state.basis_labels}

    monkeypatch.setattr(calibration, "measure", capture)
    for dim, k, rng in draws():
        amps = random_amplitudes(rng, dim)
        shut = tuple(rng.permutation(dim)[:int(rng.integers(0, min(dim, 4)))].tolist())
        tags, blocked = random_blocking(rng, dim)

        def numpy_readout():
            out = amps
            for link in shut:
                out = numpy_blank(out, link, f"link {link} is the only nonzero component")
            if blocked:
                mask = np.array([tag in blocked for tag in tags])
                out = numpy_blank(out, mask, "every component is blocked by tag")
            return out

        want = oracle(numpy_readout)
        circuit = SynapseCircuit(dim, dim, shutdown_links=shut)
        down = amps.tolist()
        if isinstance(want, str):
            with pytest.raises(DegenerateStateError, match=want):
                calibration.readout(circuit, down, 1, 0, tags, blocked)
        else:
            calibration.readout(circuit, down, 1, 0, tags, blocked)
            assert measured.pop().amplitudes.tobytes() == want.tobytes(), (dim, k)
        assert down == amps.tolist(), "readout changed the carried state"


def test_state_norms_match_numpy():
    """from_amplitudes(normalize=True), apply_operator(renormalize=True) and norm()."""
    for dim, k, rng in draws():
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = QuantumState.from_amplitudes(raw, normalize=True)
        assert state.amplitudes.tobytes() == numpy_normalized(raw).tobytes(), (dim, k)
        a = state.amplitudes
        assert state.norm() == float(np.sqrt(np.sum(a.real**2 + a.imag**2))), (dim, k)
        if k == 0 and dim <= MAX_OPERATOR_DIM:
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            got = apply_operator(state, OperatorMatrix(m), renormalize=True)
            assert got.amplitudes.tobytes() == numpy_normalized(m @ a).tobytes(), (dim, k)


def test_encode_up_matches_numpy():
    for dim, k, rng in draws():
        p = rng.uniform(0.0, 1.0, dim)
        p[rng.random(dim) < 0.2] = 0.0
        p[rng.integers(dim)] = 0.5
        want = np.sqrt(p / p.sum()).astype(complex)
        assert encode_up(p).amplitudes.tobytes() == want.tobytes(), (dim, k)
        phases = rng.uniform(-3.0, 3.0, dim)
        want = want * np.exp(1j * phases)
        assert encode_up(p, phases).amplitudes.tobytes() == want.tobytes(), (dim, k)
