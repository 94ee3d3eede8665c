"""The paper's inference as checked properties of the density engine.

If the probes A and D interact only through the mediators B and C, and a
mediator is classical, A and D cannot become entangled; so entanglement
between them shows the mediator to be non-classical (arXiv:1812.09483).
Locality is the premise: every gate acts on one qubit or within one edge of
the chain A-B-C-D (``chain_local``).  Both the built-in networks and the
random circuits of ``chain_local_circuits`` are checked against that one
rule.  A mediator is made classical by a phase flip at p = 1/2 after every
gate that touches it, which fully dephases it; the same circuits below
p = 1/2, or with a direct A-D gate added, do entangle the probes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medwit.circuits import (
    _ARITY,
    A,
    B,
    C,
    D,
    SLICE,
    Circuit,
    GateOp,
    build_asymmetric,
    build_staged,
    build_symmetric,
    cnot,
    h,
    partial_swap,
    phase_flip,
    swap,
)
from medwit.density import negativity, partial_trace, pseudo_pure, run_network_density
from medwit.pauli import BasisState

#: the edges of the chain A-B-C-D
CHAIN_EDGES = ((A, B), (B, C), (C, D))
#: every unitary kind of the gate table
UNITARY_KINDS = tuple(kind for kind in _ARITY if kind != "PHASE_FLIP")
#: the largest negativity_AD read as no entanglement
SEPARABLE_TOL = 1e-12


def chain_local(gate: GateOp) -> bool:
    """Whether a gate acts on one qubit or within one chain edge, its qubits
    in either order."""
    return len(gate.qubits) == 1 or tuple(sorted(gate.qubits)) in CHAIN_EDGES


def chain_circuit(gates, dephased, slices) -> Circuit:
    """The gates in order, each followed by a phase flip on every qubit of
    ``dephased`` that it touches, then by a slice where ``slices`` says so;
    one slice closes the circuit."""
    ops = []
    for gate, sliced in zip(gates, slices):
        ops += [gate] + [phase_flip(q) for q in gate.qubits if q in dephased]
        ops += [SLICE] if sliced else []
    return Circuit(4, (*ops, SLICE))


def negativity_ad(circuit: Circuit, epsilon: float, bits: str, p: float):
    """negativity_AD at t_0 and at each slice of ``circuit``, every phase flip at ``p``."""
    states = run_network_density(circuit, pseudo_pure(epsilon, BasisState.from_string(bits)), p)
    return negativity(partial_trace(states, [A, D]), [0])


@st.composite
def chain_local_gates(draw) -> GateOp:
    """A gate of the gate table on one qubit or on one chain edge, either
    order; a partial swap at an angle in (0, 1]."""
    kind = draw(st.sampled_from(UNITARY_KINDS))
    if _ARITY[kind] == 1:
        return GateOp(kind, (draw(st.sampled_from((A, B, C, D))),))
    edge = draw(st.sampled_from(CHAIN_EDGES))
    qubits = edge if draw(st.booleans()) else edge[::-1]
    alpha = draw(st.floats(0, 1, exclude_min=True)) if kind == "PARTIAL_SWAP" else None
    return GateOp(kind, qubits, alpha)


@st.composite
def chain_local_circuits(draw) -> tuple[Circuit, float, str]:
    """(circuit, epsilon, basis bits): 2-16 chain-local gates with slices
    drawn between them, B, C or both dephased after every gate that touches
    them, a random epsilon in [0, 1] and a random basis input."""
    count = draw(st.integers(2, 16))
    gates = draw(st.lists(chain_local_gates(), min_size=count, max_size=count))
    dephased = draw(st.sampled_from([(B,), (C,), (B, C)]))
    slices = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    epsilon = draw(st.one_of(st.just(1.0), st.floats(0, 1)))
    bits = "".join(draw(st.lists(st.sampled_from("01"), min_size=4, max_size=4)))
    return chain_circuit(gates, dephased, slices), epsilon, bits


#: a Bell pair on A-B carried to D through B and C, both dephased: a member
#: of ``chain_local_circuits``
CARRIED_BELL_PAIR = chain_circuit([h(A), cnot(A, B), swap(B, C), swap(C, D)], (B, C),
                                  [True] * 4)
#: a chain-local circuit with both mediators dephased, then a direct A-D gate
DIRECT_AD = Circuit(4, (*chain_circuit([h(B), cnot(B, C), partial_swap(D, C, 0.05)], (B, C),
                                       [False] * 3).ops, h(A), cnot(A, D), SLICE))


@pytest.mark.parametrize(
    "circuit", [build_symmetric(), build_asymmetric(), *map(build_staged, (1, 2, 3, 8, 34))],
    ids=["symmetric", "asymmetric", *(f"staged-{s}" for s in (1, 2, 3, 8, 34))])
def test_every_built_in_gate_is_chain_local(circuit):
    """The locality premise of every built-in network, read off its gates."""
    assert all(chain_local(gate) for gate in circuit.gates)


@settings(max_examples=300, deadline=None)
@given(case=chain_local_circuits())
def test_a_classical_mediator_cannot_entangle_the_probes(case):
    """At p = 1/2 a dephased mediator is classical, and every path from A
    to D runs through both B and C, so no slice entangles A and D."""
    circuit, epsilon, bits = case
    assert all(chain_local(gate) for gate in circuit.gates)
    assert negativity_ad(circuit, epsilon, bits, 0.5).max() <= SEPARABLE_TOL


def test_a_nearly_classical_mediator_still_entangles_the_probes():
    """The property is sharp at p = 1/2: just below it, a circuit of the
    same strategy entangles A and D, so the bound cannot pass vacuously."""
    neg = negativity_ad(CARRIED_BELL_PAIR, 1.0, "0000", 0.49)
    assert neg.max() > 1e-6
    assert negativity_ad(CARRIED_BELL_PAIR, 1.0, "0000", 0.5).max() <= SEPARABLE_TOL


def test_a_direct_probe_gate_entangles_past_classical_mediators():
    """A direct A-D gate breaks the premise: with B and C both classical,
    H on A then CNOT A->D entangles the probes."""
    assert not all(chain_local(gate) for gate in DIRECT_AD.gates)
    neg = negativity_ad(DIRECT_AD, 1.0, "0000", 0.5)
    assert neg[0] == neg[1] == 0.0
    assert neg[-1] > 0.49
