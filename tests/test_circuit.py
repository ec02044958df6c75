"""Circuit IR: construction, census, peephole cancellation, serialization."""
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings

from conftest import (
    frag_circuit,
    measured_circuits,
    peephole_reference,
    phase_aligned_distance,
    tv_distance,
    unitary_circuits,
    unitary_of,
    wire_sequences,
)
from qsearch import circuit as circuit_module
from qsearch import families, sim, synth
from qsearch.circuit import (
    Circuit,
    CircuitBuilder,
    CircuitTemplate,
    Hole,
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
)
from qsearch.errors import (
    IndexOutOfRange,
    InternalError,
    NotLowered,
    ParseError,
    RewrittenClassicalBit,
    UnwrittenClassicalBit,
    ValidationError,
)
from qsearch.families import FamilyRequest, Partition
from qsearch.qasm import parse, serialize
from qsearch.synth import OracleSpec


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


class TestDirectCircuit:
    """A Circuit made directly is checked as CircuitBuilder.add checks each instruction."""

    def test_non_finite_rz_refused(self):
        ops = (h(0), rz(float("nan"), 0), h(0), measure(0, 0))
        with pytest.raises(ValidationError, match="not finite"):
            Circuit(1, 1, tuple(Instruction(g) for g in ops))

    def test_clbit_out_of_range_refused(self):
        with pytest.raises(ValidationError, match="classical bit 3"):
            Circuit(1, 1, (Instruction(h(0)), Instruction(measure(0, 3))))

    def test_condition_before_measure_refused(self):
        with pytest.raises(UnwrittenClassicalBit):
            Circuit(2, 1, (Instruction(x(1), condition=(0, 1)),))

    def test_bare_gate_refused(self):
        with pytest.raises(ValidationError, match="not an Instruction"):
            Circuit(1, 0, (h(0),))

    def test_each_instruction_checked_once(self, monkeypatch):
        """Direct construction checks every instruction; the builder checks each once
        as it is added, and lower, peephole, strip and with_metadata check none again."""
        calls = []
        real = circuit_module._validate_instruction
        monkeypatch.setattr(
            circuit_module, "_validate_instruction", lambda *a: calls.append(1) or real(*a)
        )
        c = families.build(FamilyRequest("grover", OracleSpec(4, "0110")))
        assert len(calls) == len(c.instructions)
        calls.clear()
        strip_trailing_uncompute(synth.compile(c)).with_metadata(tag=1)
        assert calls == []
        Circuit(c.n_qubits, c.n_clbits, c.instructions)
        assert len(calls) == len(c.instructions)

    def test_each_fragment_checked_once_per_run(self, monkeypatch):
        """Over a k-mask run each mask-independent instruction and each hole is
        checked once, when the plan is made: 1111's circuit is all fragments,
        and an X hole per oracle qubit occurs on either side of the oracle."""
        checked = []
        real = circuit_module._validate_instruction
        monkeypatch.setattr(
            circuit_module, "_validate_instruction", lambda *a: checked.append(a[3]) or real(*a)
        )
        masks = [format(v, "04b") for v in range(16)]
        plan = families.plan(FamilyRequest("grover", OracleSpec(4, "0000", "ancilla-relphase")))
        made = len(checked)
        circuits = [plan.fill(mask) for mask in masks]
        assert len(checked) == made == len(circuits[-1].instructions) + 2 * 4
        assert sum(len(c.instructions) for c in circuits) > 8 * len(checked)

    @pytest.mark.parametrize("family,uncompute", [("wojter", "measurement-assisted"),
                                                  ("drzewker", "full"), ("wielomianer", "full")])
    def test_every_instruction_of_every_circuit_checked(self, monkeypatch, family, uncompute):
        """Each fixed instruction object is checked as often as it occurs in one
        circuit, as the run's circuits share it; every other instruction is
        made by a hole, whose instruction was checked."""
        checked = []
        real = circuit_module._validate_instruction
        monkeypatch.setattr(
            circuit_module, "_validate_instruction", lambda *a: checked.append(a[3]) or real(*a)
        )
        n = 4 if family == "wielomianer" else 5
        masks = [format(v, f"0{n}b") for v in range(1 << n)]
        blocks = {} if family == "wielomianer" else dict(partition=Partition((3, 2)),
                                                          uncompute=uncompute)
        request = FamilyRequest(family, OracleSpec(n, masks[0], "ancilla-relphase"), **blocks)
        plan = families.plan(request)
        holes = plan.template._holes
        fixed = {id(i) for part in plan.template._fixed for i in part}
        assert holes and {id(hole.instruction) for hole in holes} <= set(map(id, checked))
        most = Counter()
        for mask in masks:
            c = plan.fill(mask)
            most |= Counter(id(i) for i in c.instructions if id(i) in fixed)
            made = [i for hole in holes for i in hole.made(mask)]
            assert Counter(i for i in c.instructions if id(i) not in fixed) == Counter(made)
        assert Counter(i for i in map(id, checked) if i in fixed) == most

    def test_bad_fragment_refused_at_the_first_mask(self, monkeypatch):
        diffuser = synth.diffuser
        monkeypatch.setattr(
            synth, "diffuser", lambda *a, **kw: diffuser(*a, **kw) + [Instruction(x(99))]
        )
        request = FamilyRequest("grover", OracleSpec(3, "000", "ancilla-relphase"))
        with pytest.raises(ValidationError, match="qubit 99 outside register of size 4"):
            families.plan(request)  # before any mask is filled


class TestCircuitTemplate:
    def test_holes_checked_when_the_template_is_made(self):
        template = CircuitTemplate(2, 1, [[h(0)], Hole("cx", (0, 1), (0,)), [measure(0, 0)]])
        assert template.fill("1", {}).instructions[1] == Instruction(cx(0, 1))
        assert template.fill("0", {}).instructions[1] == Instruction(cx(0, 1, polarity=(0,)))
        with pytest.raises(IndexOutOfRange):
            CircuitTemplate(2, 1, [[h(0)], Hole("cx", (0, 2), (0,)), [measure(0, 0)]])
        with pytest.raises(ValidationError, match="duplicate qubit"):
            CircuitTemplate(2, 1, [[h(0)], Hole("cx", (0, 0), (0,)), [measure(0, 0)]])

    def test_fixed_parts_checked_once_at_construction(self):
        with pytest.raises(IndexOutOfRange):
            CircuitTemplate(1, 0, [[h(0)], Hole("x", (0,), (0,)), [x(1)]])

    def test_hole_cannot_measure(self):
        with pytest.raises(ValidationError, match="not 'measure'"):
            CircuitTemplate(1, 1, [Hole("measure", (0,), (0,))])
        with pytest.raises(TypeError):  # a hole is a Hole, not a function of the key
            CircuitTemplate(1, 1, [lambda key: [measure(0, 0)]])

    @pytest.mark.parametrize("args", [("x", (0, 1), (0,)), ("x", (0,), (None,)),
                                      ("cx", (0, 1), (0, 1)), ("cz", (0, 1), (0,))],
                             ids=["x-two-qubits", "x-unmarked", "cx-bits", "cz-bits"])
    def test_hole_bits_cover_its_controls(self, args):
        with pytest.raises(ValidationError, match="template hole takes"):
            Hole(*args)

    def test_hole_conditions_read_bits_written_before_it(self):
        hole = Hole("x", (1,), (0,), condition=(0, 1))
        with pytest.raises(UnwrittenClassicalBit):
            CircuitTemplate(2, 1, [hole, [measure(0, 0)]])
        late = CircuitTemplate(2, 1, [[measure(0, 0)], hole])
        assert late.fill("0", {}).instructions[1].condition == (0, 1)
        assert len(late.fill("1", {}).instructions) == 1

    def test_each_fill_owns_its_hole_gates_and_metadata(self):
        template = CircuitTemplate(2, 0, [[h(0)], Hole("x", (0,), (0,)), Hole("x", (1,), (1,)),
                                          [h(1)]])
        a, b = template.fill("01", {"k": 0}), template.fill("10", {"k": 1})
        assert [i.gate for i in a.instructions] == [h(0), x(0), h(1)]
        assert [i.gate for i in b.instructions] == [h(0), x(1), h(1)]
        assert a.instructions[0] is b.instructions[0]
        assert (a.metadata, b.metadata) == ({"k": 0}, {"k": 1})

    def test_marked_holes_fill_as_the_constructors_make(self):
        """Marked controls take their key bit's polarity, unmarked ones 1."""
        cz_hole = Hole("cz", (2, 0, 1), (None, 1, 0))
        cx_hole = Hole("cx", (2, 0, 1), (1, None), condition=(0, 0))
        template = CircuitTemplate(3, 1, [[measure(0, 0)], cz_hole, cx_hole])
        for key in ("00", "01", "10", "11"):
            a, b = int(key[0]), int(key[1])
            assert template.fill(key).instructions[1:] == (
                Instruction(cz(2, 0, 1, polarity=(1, b, a))),
                Instruction(cx(2, 0, 1, polarity=(b, 1)), (0, 0)))

    def test_tidied_fills_what_the_passes_keep(self):
        """Key 00's X pair on wire 0 cancels across the gates on wire 1, so both
        of those holes go; the X on wire 1 stays a hole."""
        x0, x1 = Hole("x", (0,), (0,)), Hole("x", (1,), (1,))
        parts = [[h(0), h(1)], x0, [rz(0.5, 1), h(1)], x0, x1, [measure(0, 0), measure(1, 1)]]
        template = CircuitTemplate(2, 2, parts)
        tidied = template.tidied("00", "11")
        assert tidied._holes == [x1]
        for key in ("00", "01", "10", "11"):
            tidy = strip_trailing_uncompute(peephole_cancel(template.fill(key, {})))
            assert tidied.fill(key, {"k": key}).instructions == tidy.instructions
        assert x(1) in [i.gate for i in tidied.fill("00", {}).instructions]

    def test_tidied_refuses_a_key_dependent_tidy(self):
        """Key 0's X cancels the fixed X after it; without it the fixed X stays."""
        template = CircuitTemplate(1, 1, [[h(0)], Hole("x", (0,), (0,)),
                                          [x(0), h(0), measure(0, 0)]])
        with pytest.raises(InternalError, match="keep other gates for key '1'$"):
            template.tidied("0", "1")


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
        d = phase_aligned_distance(unitary_of(c), unitary_of(out))
        assert d < 1e-10

    @given(unitary_circuits(max_qubits=5))
    @settings(max_examples=60, deadline=None)
    def test_soundness_up_to_global_phase(self, c):
        out = peephole_cancel(c)
        d = phase_aligned_distance(unitary_of(c), unitary_of(out))
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
        assert tv_distance(d1, d2) < 1e-12

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
        assert tv_distance(sim.run_exact(c), sim.run_exact(out)) < 1e-12

    def test_measurement_free_circuit_measures_every_wire(self):
        c = frag_circuit([h(0), cx(0, 1)], 2)
        out = strip_trailing_uncompute(c)
        assert out.instructions == c.instructions
        assert tv_distance(sim.run_exact(c), sim.run_exact(out)) < 1e-12

    @given(measured_circuits())
    @settings(max_examples=150, deadline=None)
    def test_keeps_exact_distribution(self, c):
        out = strip_trailing_uncompute(c)
        assert tv_distance(sim.run_exact(c), sim.run_exact(out)) < 1e-12

    def test_keeps_live_gates(self):
        b = CircuitBuilder(2, 2)
        b.h(0).add(cx(0, 1)).measure(0, 0).measure(1, 1)
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

    @pytest.mark.parametrize("text", ["# meta: [1, 2]", '# meta: "x"', "qreg q[3];", "creg c[2];",
                                      "creg c[1]; h q[0];"])
    def test_bad_header_names_its_line(self, text):
        """Metadata that is not a JSON object, and a second register
        declaration, are refused on their line."""
        with pytest.raises(ParseError, match="^line 2, ") as exc:
            parse(f"qreg q[2]; creg c[1];\n{text}\nh q[1];\n")
        assert exc.value.line == 2

    def test_second_qreg_on_one_line_refused(self):
        with pytest.raises(ParseError, match="^line 1, col 0: second qreg declaration$"):
            parse("qreg q[2]; qreg q[3]; h q[2];")

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
