"""Circuit IR: construction, census, peephole cancellation, serialization."""
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings

from conftest import (
    frag_circuit,
    measured_circuits,
    peephole_reference,
    unitary_circuits,
    wire_sequences,
)
from qsearch import sim, synth
from qsearch.circuit import (
    CircuitBuilder,
    Instruction,
    barrier,
    census,
    cx,
    cz,
    h,
    measure,
    peephole_cancel,
    rz,
    strip_trailing_uncompute,
    x,
    z,
)
from qsearch.errors import (
    IndexOutOfRange,
    NotLowered,
    ParseError,
    RewrittenClassicalBit,
    UnwrittenClassicalBit,
    ValidationError,
)
from qsearch.qasm import parse, serialize


class TestAppend:
    """Appending one instruction with CircuitBuilder.add, which checks it."""

    def test_single_gate(self):
        b = CircuitBuilder(2, 0)
        c = b.build()
        c2 = b.add(h(0)).build()
        assert len(c2.instructions) == 1
        assert len(c.instructions) == 0  # an earlier build is unchanged

    def test_conditioned_after_measure(self):
        c = CircuitBuilder(2, 1).add(measure(0, 0)).add(x(1), condition=(0, 0)).build()
        assert c.instructions[-1].condition == (0, 0)

    def test_condition_without_measure(self):
        with pytest.raises(UnwrittenClassicalBit):
            CircuitBuilder(2, 1).add(x(1), condition=(0, 1))

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            CircuitBuilder(2, 0).add(h(2))

    def test_rewrite_classical_bit(self):
        b = CircuitBuilder(2, 1).add(measure(0, 0))
        with pytest.raises(RewrittenClassicalBit):
            b.add(measure(1, 0))

    def test_rewrite_allowed_on_exclusive_branches(self):
        b = CircuitBuilder(3, 2)
        b.measure(0, 0)
        b.add(measure(1, 1), condition=(0, 0))
        b.add(measure(2, 1), condition=(0, 1))
        assert len(b.build().instructions) == 3

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rz_refused(self, angle):
        with pytest.raises(ValidationError, match="not finite"):
            CircuitBuilder(1, 0).add(rz(angle, 0))


class TestCensus:
    def test_direct_count(self):
        c = frag_circuit([h(0), cx(0, 1), cx(0, 1)], 2)
        cens = census(c)
        assert cens.two_qubit_count == 2
        assert cens.one_qubit_count == 1

    def test_exact_ccz_lowering_counts_six(self):
        # count the 2-qubit gates the synthesis module actually emits
        c = frag_circuit(synth.exact_ccz(0, 1, 2), 3)
        assert census(c).two_qubit_count == 6

    def test_not_lowered(self):
        c = frag_circuit([cz(0, 1, 2)], 3)
        with pytest.raises(NotLowered) as exc:
            census(c)
        assert exc.value.index == 0

    def test_measure_counted(self):
        c = frag_circuit([h(0), measure(0, 0)], 1, 1)
        cens = census(c)
        assert cens.measure_count == 1

    @given(unitary_circuits(max_qubits=4), unitary_circuits(max_qubits=4))
    @settings(max_examples=40, deadline=None)
    def test_additivity(self, a, b):
        if a.n_qubits != b.n_qubits:
            return
        la, lb = synth.lower(a), synth.lower(b)
        try:
            ca, cb = census(la), census(lb)
        except NotLowered:
            return
        both = census(replace(la, instructions=la.instructions + lb.instructions))
        assert both.two_qubit_count == ca.two_qubit_count + cb.two_qubit_count
        assert both.one_qubit_count == ca.one_qubit_count + cb.one_qubit_count
        assert Counter(both.by_kind) == Counter(ca.by_kind) + Counter(cb.by_kind)


class TestPeephole:
    def test_self_inverse_pair(self):
        c = frag_circuit([x(0), x(0)], 1)
        assert peephole_cancel(c).instructions == ()

    def test_disjoint_interleaving(self):
        c = frag_circuit([cx(0, 1), h(2), cx(0, 1)], 3)
        out = peephole_cancel(c)
        assert [i.gate.name for i in out.instructions] == ["h"]

    def test_blocked_by_overlap(self):
        c = frag_circuit([cx(0, 1), h(1), cx(0, 1)], 2)
        assert len(peephole_cancel(c).instructions) == 3

    def test_condition_must_match(self):
        b = CircuitBuilder(2, 1)
        b.measure(0, 0)
        b.add(x(1), condition=(0, 1))
        b.add(x(1))
        c = b.build()
        assert len(peephole_cancel(c).instructions) == 3

    def test_compute_oracle_recompute_pattern(self):
        """Adjacent uncompute/recompute pairs across a disjoint payload."""
        compute = synth.relphase_cccx(0, 1, 2, 4)
        uncompute = synth.relphase_cccx(0, 1, 2, 4, inverse=True)
        payload = [cz(3, 4)]
        mid = [h(3)]  # disjoint from the compute support
        frag = compute + payload + uncompute + mid + compute + payload + uncompute
        c = frag_circuit(frag, 5)
        out = peephole_cancel(c)
        n2_before = census(synth.lower(c)).two_qubit_count
        n2_after = census(synth.lower(out)).two_qubit_count
        assert n2_after < n2_before
        d = sim.phase_aligned_distance(sim.unitary_of(c), sim.unitary_of(out))
        assert d < 1e-10

    @given(unitary_circuits(max_qubits=5))
    @settings(max_examples=60, deadline=None)
    def test_soundness_up_to_global_phase(self, c):
        out = peephole_cancel(c)
        d = sim.phase_aligned_distance(sim.unitary_of(c), sim.unitary_of(out))
        assert d < 1e-10

    @given(unitary_circuits(max_qubits=5))
    @settings(max_examples=40, deadline=None)
    def test_census_monotone(self, c):
        low = synth.lower(c)
        before = census(low)
        after = census(peephole_cancel(low))
        assert after.two_qubit_count <= before.two_qubit_count
        assert after.one_qubit_count <= before.one_qubit_count
        for kind, count in after.by_kind.items():
            assert count <= before.by_kind.get(kind, 0)

    def test_nested_pairs_cancel_in_one_call(self):
        c = frag_circuit([x(0), h(0), h(1), h(0), x(0)], 2)
        assert peephole_cancel(c).instructions == (Instruction(h(1)),)

    def test_barrier_blocks(self):
        c = frag_circuit([x(0), barrier(), x(0)], 1)
        assert peephole_cancel(c) == c

    def test_measure_into_condition_bit_blocks(self):
        """Two gates conditioned on bit 0 stay when bit 0 is re-measured between."""
        b = CircuitBuilder(3, 2)
        b.measure(2, 1)
        b.add(measure(0, 0), condition=(1, 0))
        b.add(x(1), condition=(0, 1))
        b.add(measure(0, 0), condition=(1, 1))  # exclusive with the first write
        b.add(x(1), condition=(0, 1))
        c = b.build()
        assert peephole_cancel(c) == c
        without = replace(c, instructions=c.instructions[:3] + c.instructions[4:])
        assert len(peephole_cancel(without).instructions) == 2

    def test_rz_cancels_only_against_its_inverse(self):
        assert peephole_cancel(frag_circuit([rz(0.3, 0), rz(-0.3, 0)], 1)).instructions == ()
        c = frag_circuit([rz(0.3, 0), rz(0.3, 0)], 1)
        assert peephole_cancel(c) == c

    @staticmethod
    def _check_against_reference(c):
        out = peephole_cancel(c)
        assert wire_sequences(out) == wire_sequences(peephole_reference(c))
        assert peephole_cancel(out) == out

    @given(measured_circuits())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_measured(self, c):
        self._check_against_reference(c)

    @given(unitary_circuits(max_qubits=5))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_lowered(self, c):
        self._check_against_reference(synth.lower(c))


class TestStripTrailing:
    def test_drops_dead_uncompute(self):
        b = CircuitBuilder(3, 2)
        b.h(0).h(1)
        b.extend(synth.relphase_ccx(0, 1, 2))
        b.extend(synth.relphase_ccx(0, 1, 2, inverse=True))
        b.measure(0, 0).measure(1, 1)
        c = b.build()
        out = strip_trailing_uncompute(c)
        assert len(out.instructions) < len(c.instructions)
        d1 = sim.run_exact(c)
        d2 = sim.run_exact(out)
        assert d1.tv_distance(d2) < 1e-12

    def test_x_conjugation_does_not_pin_uncompute(self):
        """X on a measured wire keeps it classical, so the fold still drops."""
        b = CircuitBuilder(4, 3)
        for q in range(3):
            b.h(q)
        b.x(1)
        b.extend(synth.relphase_ccx(0, 1, 3))
        b.add(cz(2, 3))
        uncompute = synth.relphase_ccx(0, 1, 3, inverse=True)
        b.extend(uncompute)
        b.x(1).h(2)
        for q in range(3):
            b.measure(q, q)
        c = b.build()
        out = strip_trailing_uncompute(c)
        assert len(out.instructions) == len(c.instructions) - len(uncompute)
        assert sim.run_exact(c).tv_distance(sim.run_exact(out)) < 1e-12

    def test_measurement_free_circuit_measures_every_wire(self):
        c = frag_circuit([h(0), cx(0, 1)], 2)
        out = strip_trailing_uncompute(c)
        assert out.instructions == c.instructions
        assert sim.run_exact(c).tv_distance(sim.run_exact(out)) < 1e-12

    @given(measured_circuits())
    @settings(max_examples=150, deadline=None)
    def test_keeps_exact_distribution(self, c):
        out = strip_trailing_uncompute(c)
        assert sim.run_exact(c).tv_distance(sim.run_exact(out)) < 1e-12

    def test_keeps_live_gates(self):
        b = CircuitBuilder(2, 2)
        b.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        c = b.build()
        assert strip_trailing_uncompute(c).instructions == c.instructions


class TestSerialization:
    def test_one_gate_round_trip(self):
        c = frag_circuit([h(0)], 2)
        assert parse(serialize(c)) == c

    def test_measure_and_condition_format(self):
        text = "qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nif (c[0]==0) x q[1];\n"
        c = parse(text)
        assert c.instructions[1].condition == (0, 0)
        assert serialize(c) == text

    def test_malformed_gate(self):
        with pytest.raises(ParseError):
            parse("qreg q[1];\ncreg c[0];\nfrobnicate q[0];\n")

    def test_polarity_marks(self):
        c = frag_circuit([cx(0, 1, polarity=(0,)), cz(0, 1, 2, polarity=(1, 0, 1))], 3)
        text = serialize(c)
        assert "!q[0]" in text and "mcz(3)" in text
        assert parse(text) == c

    @pytest.mark.parametrize("gate", ["cx q[0], q[0]", "cz q[1], q[1]", "rz(nan) q[0]", "h q[2]",
                                      "if (c[0]==1) x q[0]", "frobnicate q[0]"])
    def test_errors_name_their_line_once(self, gate):
        with pytest.raises(ParseError, match="^line 2, ") as exc:
            parse(f"qreg q[2]; creg c[1];\n{gate};\n")
        assert exc.value.line == 2
        assert isinstance(exc.value, ValidationError)
        assert not isinstance(exc.value.__cause__, ParseError)  # wrapped once at most

    def test_non_finite_rz_refused(self):
        text = "qreg q[1]; creg c[1]; h q[0]; rz(nan) q[0]; h q[0]; measure q[0] -> c[0];"
        with pytest.raises(ParseError, match="not finite"):
            parse(text)

    def test_metadata_round_trip(self):
        c = frag_circuit([h(0)], 1).with_metadata(family="grover", mask="1")
        assert parse(serialize(c)).metadata == c.metadata

    @given(measured_circuits())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, c):
        assert parse(serialize(c)) == c
