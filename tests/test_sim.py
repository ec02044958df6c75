"""Exact and noisy simulation."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    HasMeasurement,
    accepted_requests,
    binom_sigma,
    dense_gate,
    dense_unitary,
    family_circuits,
    frag_circuit,
    ideal_oracle_diag,
    measured_circuits,
    phase_aligned_distance,
    run_deferred,
    run_exact_reference,
    run_noisy_reference,
    terminal_split,
    tv_distance,
    unitary_circuits,
    unitary_of,
)
from qsearch import families, sim, synth
from qsearch.circuit import (
    Circuit,
    CircuitBuilder,
    CircuitTemplate,
    Instruction,
    cx,
    cz,
    h,
    measure,
    rz,
    x,
    z,
)
from qsearch.errors import (
    InternalError,
    NotLowered,
    OverBudget,
    TooWide,
    UndefinedGateSemantics,
    ValidationError,
)
from qsearch.families import FamilyRequest
from qsearch.sim import Distribution, NoiseModel
from qsearch.synth import OracleSpec


def all_masks(n: int) -> list[str]:
    return [format(v, f"0{n}b") for v in range(1 << n)]


class TestRunExact:
    def test_hadamard(self):
        d = sim.run_exact(frag_circuit([h(0)], 1))
        assert abs(d.probability(0) - 0.5) < 1e-12
        assert abs(d.probability(1) - 0.5) < 1e-12

    def test_grover_four_qubits(self):
        c = families.build(FamilyRequest("grover", OracleSpec(4, "0110", "plain-mcz")))
        d = sim.run_exact(c).marginal([0, 1, 2, 3])
        # (3 - 4/16)^2 / 16 = 121/256
        assert abs(d.probability(0b0110) - 121 / 256) < 1e-12

    def test_branching_matches_deferred(self):
        c = families.build(FamilyRequest("wielomianer", OracleSpec(4, "0101", "plain-mcz")))
        a = sim.run_exact(c).marginal([0, 1, 2, 3])
        b = run_deferred(c).marginal([0, 1, 2, 3])
        assert tv_distance(a, b) < 1e-10

    def test_deferred_covers_measurement_bearing_families(self):
        cases = [
            (families.build(FamilyRequest(
                "wielomianer", OracleSpec(4, "1011", "plain-mcz"))), [0, 1, 2, 3]),
            (families.build(FamilyRequest(
                "grover", OracleSpec(5, "10110", "measurement-assisted"))),
             [0, 1, 2, 3, 4]),
            (families.build(FamilyRequest(
                "wojter", OracleSpec(5, "10110", "ancilla-relphase"),
                partition=families.Partition((3, 2)), uncompute="measurement-assisted")),
             [0, 1, 2, 3, 4]),
        ]
        for circ, data in cases:
            a = sim.run_exact(circ).marginal(data)
            b = run_deferred(circ).marginal(data)
            assert tv_distance(a, b) < 1e-10

    @given(measured_circuits())
    @settings(max_examples=40, deadline=None)
    def test_deferred_controls_match_branching(self, c):
        assert tv_distance(sim.run_exact(c), run_deferred(c)) < 1e-10

    @pytest.mark.parametrize("n_clbits", [0, 2])
    def test_measurement_free_measures_every_wire(self, n_clbits):
        c = frag_circuit([h(0), cx(0, 1)], 2, n_clbits)
        for d in (sim.run_exact(c), run_deferred(c)):
            assert d.n_bits == 2
            assert np.allclose(d.probabilities, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_too_wide(self):
        with pytest.raises(TooWide):
            sim.run_exact(frag_circuit([], 25))

    def test_refuses_branching_past_exact_width(self, monkeypatch):
        # 3 qubits and 2 mid-circuit measurements: 4 branch rows of 2^3, or 2^5 deferred
        b = CircuitBuilder(3, 3)
        b.h(0).h(1).measure(0, 0).measure(1, 1)
        b.add(x(2), condition=(0, 1))
        b.measure(2, 2)
        c = b.build()
        monkeypatch.setattr(sim, "MAX_EXACT_WIDTH", 5)
        assert tv_distance(sim.run_exact(c), run_deferred(c)) < 1e-12

        def unexpected(*args):
            raise AssertionError("simulated a gate before checking the width")

        monkeypatch.setattr(sim, "MAX_EXACT_WIDTH", 4)
        monkeypatch.setattr(sim, "_apply_gate", unexpected)
        for run in (sim.run_exact, run_deferred):
            with pytest.raises(TooWide, match="3 qubits and 2 mid-circuit measurements exceed"):
                run(c)

    def test_mid_measure_branch_weights(self):
        b = CircuitBuilder(2, 2)
        b.h(0).measure(0, 0)
        b.add(x(1), condition=(0, 1))
        b.measure(1, 1)
        d = sim.run_exact(b.build())
        assert abs(d.probability(0b00) - 0.5) < 1e-12
        assert abs(d.probability(0b11) - 0.5) < 1e-12

    def test_distribution_normalized(self):
        c = families.build(FamilyRequest(
            "wojter", OracleSpec(5, "01001", "ancilla-relphase"),
            partition=families.Partition((3, 2))))
        d = sim.run_exact(c)
        assert abs(d.as_probabilities().sum() - 1.0) < 1e-12


class TestUnitaryOf:
    def test_empty_is_identity(self):
        u = unitary_of(frag_circuit([], 3))
        assert np.allclose(u, np.eye(8))

    def test_oracle_diagonal(self):
        u = unitary_of(frag_circuit(synth.oracle(OracleSpec(3, "101", "plain-mcz")), 3))
        assert phase_aligned_distance(u, ideal_oracle_diag(3, "101")) < 1e-10

    def test_relphase_pair_identity(self):
        frag = synth.relphase_ccx(0, 1, 2) + synth.relphase_ccx(0, 1, 2, inverse=True)
        u = unitary_of(frag_circuit(frag, 3))
        assert phase_aligned_distance(u, np.eye(8, dtype=complex)) < 1e-10

    def test_rejects_measurement(self):
        with pytest.raises(HasMeasurement):
            unitary_of(frag_circuit([measure(0, 0)], 1, 1))

    def test_rejects_wide(self):
        with pytest.raises(TooWide):
            unitary_of(frag_circuit([], 13))

    @given(unitary_circuits())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, c):
        ref = dense_unitary([i.gate for i in c.instructions], c.n_qubits)
        assert np.abs(unitary_of(c) - ref).max() < 1e-10

    @pytest.mark.parametrize(
        "gate",
        [
            cx(5, 2, 0, 3, polarity=(0, 1, 0)),
            cx(4, 1, 5, 0, 2, polarity=(1, 0, 0, 1)),
            cz(5, 3, 0, 1, polarity=(0, 1, 1, 0)),
            cz(5, 4, 2, 1, 0, polarity=(0, 1, 0, 1, 1)),
        ],
    )
    def test_wide_gates_match_dense_reference(self, gate):
        u = unitary_of(frag_circuit([gate], 6))
        assert np.abs(u - dense_gate(gate, 6)).max() < 1e-10

    @given(unitary_circuits(max_qubits=4))
    @settings(max_examples=30, deadline=None)
    def test_unitarity(self, c):
        u = unitary_of(c)
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-10)


class TestRunExactReference:
    """run_exact keeps its branches as rows of one batch; the list-of-branches
    loop it replaced is the reference."""

    @staticmethod
    def assert_matches_reference(c):
        got, want = sim.run_exact(c), run_exact_reference(c)
        assert got.n_bits == want.n_bits
        assert np.abs(got.probabilities - want.probabilities).max() <= 1e-15

    @given(measured_circuits())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_measured(self, c):
        self.assert_matches_reference(c)

    @pytest.mark.parametrize("style", synth.ORACLE_STYLES)
    @pytest.mark.parametrize("family", families.FAMILIES)
    def test_matches_reference_families(self, family, style):
        circuits = list(family_circuits(family, style, max_n=4, all_masks=True))
        assert circuits
        for c in circuits:
            self.assert_matches_reference(c)
            self.assert_matches_reference(synth.compile(c))


class TestRunExactBatch:
    """run_exact_template runs a template's keys as the rows of one batch,
    in consecutive groups of at most _BLOCK amplitudes; each key's
    distribution is the one its fill gets alone."""

    @pytest.mark.parametrize("style", synth.ORACLE_STYLES)
    @pytest.mark.parametrize("family", families.FAMILIES)
    def test_bit_identical_to_one_circuit_runs(self, family, style):
        # the walk of each accepted option set's template over every mask, as
        # `--oracle-set all` runs it, against each mask's circuit run alone
        for request in accepted_requests(family, style, max_n=5):
            plan, masks = families.plan(request), all_masks(request.oracle.n)
            for mask, d in zip(masks, sim.run_exact_template(plan.template, masks), strict=True):
                assert np.array_equal(d.probabilities, sim.run_exact(plan.fill(mask)).probabilities)

    @pytest.mark.parametrize("family, diffuser_size", [("grover", None), ("partial", 3)])
    def test_bit_identical_at_six_qubits(self, family, diffuser_size):
        plan = families.plan(FamilyRequest(
            family, OracleSpec(6, "000000", "plain-mcz"), diffuser_size=diffuser_size))
        masks = all_masks(6)
        for mask, d in zip(masks, sim.run_exact_template(plan.template, masks), strict=True):
            assert np.array_equal(d.probabilities, sim.run_exact(plan.fill(mask)).probabilities)

    @pytest.mark.parametrize("block", [1, 64, 1024])
    def test_terminal_pass_in_blocks_is_bit_identical(self, block, monkeypatch):
        # measurement-assisted Grover-3 branches over its mid-circuit
        # measurements; with kernels and collapses working in blocks of
        # `block` amplitudes and the keys in groups of whole keys, every key's
        # bytes are its fill's alone, and each group takes one terminal pass
        plan = families.plan(FamilyRequest("grover", OracleSpec(3, "000", "measurement-assisted")))
        masks = all_masks(3)
        want = [sim.run_exact(plan.fill(mask)).probabilities for mask in masks]
        c = plan.fill("000")
        per_group = max(1, block >> sim._exact_width(c.n_qubits, terminal_split(c)[0]))
        calls = []
        histograms = sim._terminal_histograms
        monkeypatch.setattr(sim, "_terminal_histograms",
                            lambda *args: calls.append(args[-1]) or histograms(*args))
        monkeypatch.setattr(sim, "_BLOCK", block)
        got = sim.run_exact_template(plan.template, masks)
        assert all(np.array_equal(d.probabilities, w) for d, w in zip(got, want))
        assert calls == [min(per_group, 8 - i) for i in range(0, 8, per_group)]

    def test_terminal_pass_is_one_pass_per_kind(self, monkeypatch):
        # a template's keys share one terminal split, so one group of them
        # takes one pass, whatever their holes make
        calls = []
        histograms = sim._terminal_histograms
        monkeypatch.setattr(sim, "_terminal_histograms",
                            lambda *args: calls.append(args[-1]) or histograms(*args))
        sim.run_exact_template(CircuitTemplate(2, 0, [[h(0)], lambda q: [x(q)]]), [0, 1, 0])
        measured = CircuitTemplate(2, 1, [[h(0)], lambda q: [x(q)], [h(1), measure(1, 0)]])
        sim.run_exact_template(measured, [0, 1, 0, 1])
        assert calls == [3, 4]

    def test_shared_instruction_runs_once(self, monkeypatch):
        calls = []
        apply_gate = sim._apply_gate
        monkeypatch.setattr(sim, "_apply_gate", lambda s, g, n: calls.append(g) or apply_gate(s, g, n))
        template = CircuitTemplate(2, 0, [[h(0), h(1)], lambda q: [x(q)], [cz(0, 1)]])
        dists = sim.run_exact_template(template, [0, 1, 0])
        # the fixed h(0), h(1) and cz(0, 1) once each for all three keys; the
        # hole's x(0) once for two keys, x(1) once
        assert [(g.name, g.qubits) for g in calls] == [
            ("h", (0,)), ("h", (1,)), ("x", (0,)), ("x", (1,)), ("cz", (0, 1))]
        assert dists[0].probabilities.tolist() == dists[2].probabilities.tolist()
        for key, d in zip([0, 1, 0], dists):
            assert d.probabilities.tolist() == sim.run_exact(template.fill(key, {})).probabilities.tolist()

    def test_mid_circuit_measurements_branch_per_circuit(self):
        # key 1 puts wire 0 in superposition before it is measured, key 0 does
        # not: one group holds branching and plain keys alike
        template = CircuitTemplate(2, 2, [[h(1)], lambda k: [h(0)] * k,
                                          [measure(0, 0), Instruction(x(1), (0, 1)), measure(1, 1)]])
        for keys in ([1, 0], [0, 1, 1]):
            for key, d in zip(keys, sim.run_exact_template(template, keys)):
                assert d.probabilities.tolist() == sim.run_exact(template.fill(key, {})).probabilities.tolist()

    def test_errors_name_their_circuit(self, monkeypatch):
        # a circuit is one key, so its errors name index 0; of a template's
        # keys, the first whose norm drifts is named
        ops = (h(0), rz(float("nan"), 0), h(0), measure(0, 0))
        with pytest.raises(ValidationError, match="norm drifted") as info:
            sim.run_exact(Circuit._trusted(1, 1, tuple(Instruction(g) for g in ops), {}))
        assert info.value.circuit == 0
        nan = float("nan")
        template = CircuitTemplate(1, 1, [[h(0)], lambda a: [rz(a, 0)], [h(0), measure(0, 0)]])
        monkeypatch.setattr(CircuitTemplate, "_made",
                            lambda self, hole, written, key: [Instruction(g) for g in hole(key)])
        with pytest.raises(ValidationError, match="norm drifted") as info:
            sim.run_exact_template(template, [0.1, nan, 0.2, nan])
        assert info.value.circuit == 1
        monkeypatch.setattr(sim, "MAX_EXACT_WIDTH", 2)
        wide = frag_circuit([h(0), measure(0, 0), h(0), measure(0, 1), h(0), measure(0, 2)], 1, 3)
        with pytest.raises(TooWide) as info:
            sim.run_exact(wide)
        assert info.value.circuit == 0

    def test_measurements_copy_only_rows_with_two_live_outcomes(self, monkeypatch):
        # measurement-assisted Grover-3 measures an ancilla whose outcomes are
        # both live; the last circuit measures a wire in |1> mid-circuit
        plan = families.plan(FamilyRequest("grover", OracleSpec(3, "000", "measurement-assisted")))
        masks = all_masks(3)
        one_live = frag_circuit([h(0), measure(0, 0), x(1), measure(1, 1), h(1)], 4, 2)
        want = [sim.run_exact(c).probabilities for c in [*map(plan.fill, masks), one_live]]
        copied, expected, one_lives = [], [], []
        grow, split = sim._Rows.grow, sim._Rows.split

        def counting_grow(table, src):
            copied.append((table.active, src.tolist()))
            return grow(table, src)

        def checking_split(table, rows, outcome, recorded, q, c):
            measured = np.unique(rows)
            p1 = np.array([sum(abs(a) ** 2 for i, a in enumerate(table.state[r])
                               if i >> (table.n - 1 - q) & 1) for r in measured])
            both = measured[(p1 > 1e-12) & (1 - p1 > 1e-12)]
            expected.append((table.active, both.tolist()))
            one_lives.append(len(measured) - len(both))
            return split(table, rows, outcome, recorded, q, c)

        monkeypatch.setattr(sim._Rows, "grow", counting_grow)
        monkeypatch.setattr(sim._Rows, "split", checking_split)
        got = sim.run_exact_template(plan.template, masks) + [sim.run_exact(one_live)]
        # some measurements copy rows, and some leave a measured row uncopied
        assert copied == expected and any(src for _, src in copied) and any(one_lives)
        assert all(np.array_equal(d.probabilities, w) for d, w in zip(got, want, strict=True))

    @pytest.mark.parametrize("per_group", [1, 2, 3, 8])
    def test_groups_are_bit_identical(self, per_group, monkeypatch):
        # measurement-assisted Grover-3 branches over its mid-circuit
        # measurements; its keys go in consecutive groups of _BLOCK amplitudes
        plan = families.plan(FamilyRequest(
            "grover", OracleSpec(3, "000", "measurement-assisted")))
        masks = all_masks(3)
        want = sim.run_exact_template(plan.template, masks)  # one group
        c = plan.fill("000")
        width = sim._exact_width(c.n_qubits, terminal_split(c)[0])
        assert width > c.n_qubits  # n wires and m mid-circuit measurements
        sizes = []
        histograms = sim._terminal_histograms
        monkeypatch.setattr(sim, "_terminal_histograms",
                            lambda *args: sizes.append(args[-1]) or histograms(*args))
        monkeypatch.setattr(sim, "_BLOCK", (per_group << width) + 1)
        got = sim.run_exact_template(plan.template, masks)
        assert sizes == [min(per_group, 8 - i) for i in range(0, 8, per_group)]
        assert all(np.array_equal(d.probabilities, w.probabilities) for d, w in zip(got, want))

    def test_error_in_a_later_group_names_its_circuit(self, monkeypatch):
        # two keys of two amplitudes per group; key 3's hole makes an rz that
        # fails in the kernel, in the second group
        apply_gate = sim._apply_gate

        def failing(state, gate, n):
            if gate.name == "rz":
                raise UndefinedGateSemantics("marked rz")
            apply_gate(state, gate, n)

        monkeypatch.setattr(sim, "_apply_gate", failing)
        monkeypatch.setattr(sim, "_BLOCK", 4)
        template = CircuitTemplate(1, 1, [[h(0)], lambda k: [rz(0.125, 0)] if k == 3 else [x(0)],
                                          [h(0), measure(0, 0)]])
        with pytest.raises(UndefinedGateSemantics) as info:
            sim.run_exact_template(template, [0, 1, 2, 3, 4])
        assert info.value.circuit == 3


class TestRunExactTemplate:
    """run_exact_template walks a template once for all its keys: each fixed
    instruction once on every row, each hole's distinct instructions once on
    the rows of the keys that made them."""

    @pytest.mark.parametrize("style", synth.ORACLE_STYLES)
    @pytest.mark.parametrize("family", families.FAMILIES)
    def test_matches_reference(self, family, style):
        # measurement-assisted uncompute branches, and wielomianer conditions
        # its tail on a mid-circuit bit
        for request in accepted_requests(family, style, max_n=4):
            plan, masks = families.plan(request), all_masks(request.oracle.n)
            for mask, d in zip(masks, sim.run_exact_template(plan.template, masks), strict=True):
                want = run_exact_reference(plan.fill(mask))
                assert d.n_bits == want.n_bits
                assert np.abs(d.probabilities - want.probabilities).max() <= 1e-12

    def test_too_wide_refused_before_any_hole_or_gate(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("made a hole or ran a gate before checking the width")

        plan = families.plan(FamilyRequest(
            "grover", OracleSpec(10, "0" * 10, "measurement-assisted"), iterations=3))
        monkeypatch.setattr(CircuitTemplate, "_made", unexpected)
        monkeypatch.setattr(sim, "_apply_gate", unexpected)
        with pytest.raises(TooWide, match="^14 qubits and 12 mid-circuit measurements exceed "
                                          "exact limit 24$") as info:
            sim.run_exact_template(plan.template, ["0" * 10, "1" * 10])
        assert info.value.circuit == 0

    @pytest.mark.parametrize("block", [None, 4])
    def test_hole_errors_name_their_key(self, block, monkeypatch):
        # a hole that makes a bad gate for one key is refused as it makes it;
        # one whose gate slips past the check drifts the norm of its key only
        if block is not None:
            monkeypatch.setattr(sim, "_BLOCK", block)  # one key per group
        nan = float("nan")
        checked = CircuitTemplate(1, 1, [[h(0)], lambda a: [rz(a, 0)], [h(0), measure(0, 0)]])
        with pytest.raises(ValidationError, match="rz angle nan is not finite") as info:
            sim.run_exact_template(checked, [0.1, 0.2, 0.3, nan, 0.5])
        assert info.value.circuit == 3
        unchecked = CircuitTemplate(1, 1, [[h(0)], lambda a: [rz(a, 0)], [h(0), measure(0, 0)]])
        monkeypatch.setattr(CircuitTemplate, "_made",
                            lambda self, hole, written, key: [Instruction(g) for g in hole(key)])
        with pytest.raises(ValidationError, match="norm drifted") as info:
            sim.run_exact_template(unchecked, [0.1, 0.2, 0.3, nan, 0.5])
        assert info.value.circuit == 3

    def test_split_that_a_key_could_move_refused(self):
        # for a key whose hole makes nothing, measure(0, 0) would be terminal too
        template = CircuitTemplate(2, 2, [[h(0), measure(0, 0)], lambda k: [x(1)] * k,
                                          [measure(1, 1)]])
        with pytest.raises(InternalError, match="terminal measurements") as info:
            sim.run_exact_template(template, [0, 1])
        assert info.value.circuit == 0
        template = CircuitTemplate(2, 2, [[h(0), measure(0, 0)], lambda k: [x(1)] * k,
                                          [h(1), measure(1, 1)]])
        for key, d in zip([0, 1], sim.run_exact_template(template, [0, 1])):
            assert d.probabilities.tolist() == sim.run_exact(template.fill(key, {})).probabilities.tolist()

    def test_no_keys(self):
        assert sim.run_exact_template(CircuitTemplate(1, 0, [[h(0)]]), []) == []


class TestRunNoisyReference:
    """run_noisy shares one error-free reference row until each trajectory's
    first Pauli insertion; the loop that gave every trajectory its own row
    from the start is the reference, and counts must match it exactly."""

    NOISES = [
        NoiseModel(),
        NoiseModel(p1=0.05),
        NoiseModel(p2=0.05),
        NoiseModel(p1=0.02, p2=0.05, p_meas=0.03),
        NoiseModel(p2=1.0),
    ]

    @staticmethod
    def assert_matches_reference(c, noise, shots, seed):
        got = sim.run_noisy(c, noise, shots, seed)
        want = run_noisy_reference(c, noise, shots, seed)
        assert got.counts.tolist() == want.counts.tolist()

    @given(measured_circuits(), st.sampled_from(NOISES), st.integers(1, 200),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_measured(self, c, noise, shots, seed):
        self.assert_matches_reference(synth.compile(c), noise, shots, seed)

    @pytest.mark.parametrize("style", synth.ORACLE_STYLES)
    @pytest.mark.parametrize("family", families.FAMILIES)
    def test_matches_reference_families(self, family, style):
        # the noise models take turns; in every family and style each one
        # meets measurement-free and measurement-bearing circuits alike, and
        # wielomianer's three circuits come round again until each has
        circuits = list(family_circuits(family, style, max_n=5))
        assert circuits
        for i in range(max(len(circuits), len(self.NOISES))):
            c, noise = circuits[i % len(circuits)], self.NOISES[i % len(self.NOISES)]
            self.assert_matches_reference(synth.compile(c), noise, 40, i)

    @pytest.mark.parametrize(
        "n, mask, shots, seed, counts",
        [
            (6, "101101", 160, 11,
                [2, 5, 3, 1, 4, 6, 2, 3, 3, 2, 1, 0, 3, 3, 0, 4,
                 2, 2, 1, 4, 2, 4, 1, 3, 2, 2, 3, 5, 0, 4, 1, 0,
                 2, 3, 2, 2, 0, 1, 4, 3, 0, 2, 4, 1, 4, 12, 5, 3,
                 1, 4, 1, 1, 1, 4, 1, 4, 0, 2, 2, 4, 2, 2, 2, 3]),
            (7, "0110100", 80, 12,
                [1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1,
                 1, 0, 2, 1, 2, 0, 1, 0, 1, 2, 0, 0, 1, 1, 0, 0,
                 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
                 1, 0, 0, 0, 2, 1, 0, 1, 2, 1, 1, 1, 0, 1, 0, 0,
                 1, 1, 2, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0,
                 0, 2, 0, 0, 1, 3, 1, 0, 0, 1, 0, 0, 1, 1, 2, 0,
                 0, 2, 1, 1, 1, 1, 1, 1, 1, 2, 0, 0, 0, 0, 0, 1,
                 1, 3, 2, 0, 0, 1, 0, 1, 0, 0, 1, 1, 2, 0, 0, 2]),
        ],
        ids=["grover6", "grover7"],
    )
    def test_measurement_free_counts_pinned(self, n, mask, shots, seed, counts):
        # error-free trajectories share the reference row here; a given seed
        # keeps giving the counts the per-trajectory loop gave
        c = synth.compile(families.build(FamilyRequest(
            "grover", OracleSpec(n, mask, "ancilla-relphase"))))
        d = sim.run_noisy(c, NoiseModel(p2=0.01), shots, seed=seed)
        assert d.counts.tolist() == counts


def noisy_needs(template, keys, shots):
    """Each key's chunk estimate (_NoisyPlan.chunk_bytes), as run_noisy_template plans it."""
    return sim._noisy_plans(template, keys, shots)[3]


class TestRunNoisyBatch:
    """run_noisy_template samples a template's keys as the rows of one
    batch, in consecutive groups within MAX_NOISY_BYTES; each key gets the
    counts its own seed gives its fill alone."""

    NOISE = NoiseModel(p1=0.02, p2=0.05, p_meas=0.03)

    @given(measured_circuits(), st.integers(1, 40), st.sampled_from([sim.TRAJECTORY_CHUNK, 7]),
           st.sampled_from([sim._BLOCK, 2]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_per_circuit(self, c, shots, chunk, block, seed):
        c = synth.compile(c)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "TRAJECTORY_CHUNK", chunk)  # 7: shots cross chunk boundaries
            patch.setattr(sim, "_BLOCK", block)  # 2: every kernel works one row at a time
            got = sim.run_noisy(c, self.NOISE, shots, seed)
            want = run_noisy_reference(c, self.NOISE, shots, seed)
        assert got.counts.tolist() == want.counts.tolist()

    @pytest.mark.parametrize("style", synth.ORACLE_STYLES)
    @pytest.mark.parametrize("family", families.FAMILIES)
    def test_equal_to_one_circuit_runs(self, family, style):
        # the walk of each accepted option set's compiled template over every
        # mask, as `--oracle-set all` samples it, against each mask's compiled
        # circuit sampled alone
        for request in accepted_requests(family, style, max_n=4):
            plan, masks = families.plan(request), all_masks(request.oracle.n)
            compiled = synth.compile_template(plan.template)
            seeds = list(range(len(masks)))
            got = sim.run_noisy_template(compiled, masks, self.NOISE, 24, seeds)
            for mask, s, d in zip(masks, seeds, got, strict=True):
                want = sim.run_noisy(synth.compile(plan.fill(mask)), self.NOISE, 24, s)
                assert d.counts.tolist() == want.counts.tolist(), (request, mask)

    def test_error_free_trajectories_share_rows_through_measurements(self, monkeypatch):
        # wielomianer measures one wire mid-circuit and conditions 48 gates on it;
        # without noise its 400 trajectories ride one row per outcome
        c = synth.compile(families.build(FamilyRequest(
            "wielomianer", OracleSpec(4, "1011", "plain-mcz"))))
        rows = []
        grow = sim._Rows.grow

        def counting(batch, src):
            out = grow(batch, src)
            rows.append(batch.active)
            return out

        monkeypatch.setattr(sim._Rows, "grow", counting)
        d = sim.run_noisy(c, NoiseModel(), 400, seed=3)
        assert rows and max(rows) <= 2
        assert d.counts.tolist() == run_noisy_reference(c, NoiseModel(), 400, 3).counts.tolist()

    def test_shared_instruction_runs_once(self, monkeypatch):
        # three keys of one template: each fixed instruction runs once, and
        # each hole's distinct instructions once
        calls = []
        apply_gate = sim._apply_gate
        monkeypatch.setattr(sim, "_apply_gate", lambda s, g, n: calls.append(g) or apply_gate(s, g, n))
        template = CircuitTemplate(2, 0, [[h(0), h(1)], lambda q: [x(q)], [cz(0, 1)]])
        sim.run_noisy_template(template, [0, 1, 0], NoiseModel(), 50, [1, 2, 3])
        assert sorted(g.name for g in calls) == ["cz", "h", "h", "x", "x"]

    def test_one_seed_per_circuit(self):
        template = CircuitTemplate(1, 0, [[h(0)]])
        with pytest.raises(ValidationError, match="2 keys need as many seeds, got 1"):
            sim.run_noisy_template(template, [None, None], NoiseModel(), 10, [0])
        assert sim.run_noisy_template(template, [], NoiseModel(), 10, []) == []

    def test_errors_name_their_circuit(self, monkeypatch):
        # a circuit is one key, so its errors name index 0; of a template's
        # keys, the one whose fill is over the budget is named
        with pytest.raises(NotLowered) as info:
            sim.run_noisy(frag_circuit([cz(0, 1, 2)], 3), NoiseModel(), 10, 0)
        assert info.value.circuit == 0
        good = frag_circuit([h(0), cx(0, 1)], 2)
        alone = [sim.run_noisy(good, self.NOISE, 10, s).counts.tolist() for s in (0, 1)]
        longer = CircuitTemplate(2, 0, [[h(0), cx(0, 1)], lambda k: [h(0), cx(0, 1)] * 7 * k])
        monkeypatch.setattr(sim, "MAX_NOISY_BYTES", noisy_needs(CircuitTemplate.of(good), [None], 10)[0])
        with pytest.raises(OverBudget, match="10 trajectories of 35 uniforms") as info:
            sim.run_noisy_template(longer, [0, 1], NoiseModel(), 10, [0, 1])
        assert info.value.circuit == 1
        # each of two keys fits the budget, both together do not: two groups
        sizes = []
        noisy_group = sim._noisy_group
        monkeypatch.setattr(sim, "_noisy_group", lambda template, split, kept, *args:
                            sizes.append(len(kept)) or noisy_group(template, split, kept, *args))
        got = sim.run_noisy_template(CircuitTemplate.of(good), [None, None], self.NOISE, 10, [0, 1])
        assert sizes == [1, 1]
        assert [d.counts.tolist() for d in got] == alone

    @pytest.mark.parametrize("per_group", [1, 2, 16])
    def test_groups_are_bit_identical(self, per_group, monkeypatch):
        plan = families.plan(FamilyRequest("wielomianer", OracleSpec(4, "0000")))
        compiled, masks = synth.compile_template(plan.template), all_masks(4)
        seeds = list(range(100, 116))
        want = sim.run_noisy_template(compiled, masks, self.NOISE, 50, seeds)  # one group
        needs = noisy_needs(compiled, masks, 50)
        assert 3 * min(needs) > 2 * max(needs)  # so a budget of k * max holds k keys
        sizes = []
        noisy_group = sim._noisy_group
        monkeypatch.setattr(sim, "_noisy_group", lambda template, split, kept, *args:
                            sizes.append(len(kept)) or noisy_group(template, split, kept, *args))
        monkeypatch.setattr(sim, "MAX_NOISY_BYTES", per_group * max(needs))
        got = sim.run_noisy_template(compiled, masks, self.NOISE, 50, seeds)
        assert sizes == [per_group] * (16 // per_group)
        assert [d.counts.tolist() for d in got] == [d.counts.tolist() for d in want]

    def test_error_in_a_later_group_names_its_circuit(self, monkeypatch):
        # key 2's hole makes a gate on three qubits, or an rz that fails in the kernel
        template = CircuitTemplate(3, 0, [[h(0)], lambda k: [cz(0, 1, 2)] if k == 2 else [cx(0, 1)],
                                          [h(1)]])
        monkeypatch.setattr(sim, "MAX_NOISY_BYTES", noisy_needs(template, [0], 10)[0])
        with pytest.raises(NotLowered) as info:  # refused by its plan, before any group
            sim.run_noisy_template(template, [0, 1, 2], self.NOISE, 10, [0, 1, 2])
        assert info.value.circuit == 2
        apply_gate = sim._apply_gate

        def failing(state, gate, n):
            if gate.name == "rz":
                raise UndefinedGateSemantics("marked rz")
            apply_gate(state, gate, n)

        monkeypatch.setattr(sim, "_apply_gate", failing)
        template = CircuitTemplate(3, 0, [[h(0)], lambda k: [rz(0.125, 1)] if k == 2 else [cx(0, 1)],
                                          [h(1)]])
        with pytest.raises(UndefinedGateSemantics) as info:  # one key per group
            sim.run_noisy_template(template, [0, 1, 2, 3], self.NOISE, 10, [0, 1, 2, 3])
        assert info.value.circuit == 2


class TestRunNoisyTemplate:
    """run_noisy_template walks a compiled template once for all its keys:
    each fixed instruction once on the rows of the keys that keep it, and
    each hole's distinct kept instructions once on the rows of the keys
    that made them."""

    def test_fixed_instructions_and_split_cores_run_once(self, monkeypatch):
        # plain-mcz Grover-3: the oracle's polarized cz splits into X holes
        # around its all-ones expansion, a fixed part that all 8 masks share
        plan = families.plan(FamilyRequest("grover", OracleSpec(3, "000")))
        compiled, masks = synth.compile_template(plan.template), all_masks(3)
        calls = []
        apply_gate = sim._apply_gate
        monkeypatch.setattr(sim, "_apply_gate", lambda s, g, n: calls.append(g) or apply_gate(s, g, n))
        sim.run_noisy_template(compiled, masks, NoiseModel(), 16, list(range(8)))
        kept = [compiled._kept(m) for m in masks]
        fixed = [i for part in compiled._fixed for i in part]
        shared = [i.gate for t, i in enumerate(fixed)
                  if i.gate.name != "measure" and any(flags[t] for flags, _ in kept)]
        holes = [i.gate for j in range(len(compiled._fixed) - 1)
                 for made in {holes[j] for _, holes in kept} for i in made]
        assert sorted(map(repr, calls)) == sorted(map(repr, shared + holes))
        core = synth.compile(frag_circuit([cz(0, 1, 2)], 3)).instructions
        assert len(core) > 1 and any(part == core for part in compiled._fixed)
        alone = sum(len(compiled.fill(m).instructions) - 3 for m in masks)  # less the measurements
        assert 3 * len(calls) < alone

class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValidationError):
            NoiseModel(p2=1.5)

    def test_noisy_requires_lowered(self):
        c = frag_circuit([cz(0, 1, 2)], 3)
        with pytest.raises(NotLowered):
            sim.run_noisy(c, NoiseModel(), 10, 0)


class TestRunNoisy:
    def test_zero_noise_matches_exact(self):
        c = families.build(FamilyRequest("grover", OracleSpec(3, "101", "plain-mcz")))
        low = synth.lower(c)
        shots = 20000
        d = sim.run_noisy(low, NoiseModel(), shots, seed=11).marginal([0, 1, 2])
        exact = sim.run_exact(c).marginal([0, 1, 2]).as_probabilities()
        sampled = d.as_probabilities()
        for v in range(8):  # per-outcome binomial bands
            assert abs(sampled[v] - exact[v]) < 4 * binom_sigma(exact[v], shots)

    def test_full_depolarization_uniform(self):
        c = families.build(FamilyRequest("grover", OracleSpec(3, "111", "plain-mcz")))
        low = synth.lower(c)
        shots = 20000
        d = sim.run_noisy(low, NoiseModel(p2=1.0), shots, seed=5).marginal([0, 1, 2])
        p = d.probability(0b111)
        assert abs(p - 1 / 8) < 4 * binom_sigma(1 / 8, shots)

    @pytest.mark.parametrize("walls", [False, True])
    def test_two_qubit_pauli_is_uniform(self, walls):
        # outcome 00 has 3 of the 15 Paulis (no X part; no Z part inside H walls)
        wall = [h(0), h(1)] if walls else []
        c = frag_circuit(wall + [cx(0, 1)] + wall, 2)
        shots = 6000
        p = sim.run_noisy(c, NoiseModel(p2=1.0), shots, seed=13).as_probabilities()
        for got, want in zip(p, np.array([3, 4, 4, 4]) / 15):
            assert abs(got - want) < 4 * binom_sigma(want, shots)

    def test_one_qubit_pauli_flips_two_thirds(self):
        shots = 6000
        d = sim.run_noisy(frag_circuit([z(0)], 1), NoiseModel(p1=1.0), shots, seed=17)
        assert abs(d.probability(1) - 2 / 3) < 4 * binom_sigma(2 / 3, shots)

    @pytest.mark.parametrize("p2", [0.2, 0.3])
    def test_pauli_pick_independent_of_hit(self, p2):
        # 12 of the 15 non-identity 2-qubit Paulis carry an X or Y part; a pick
        # drawn from the hit's own uniform would favour the first 15*p2 Paulis
        shots = 20000
        c = frag_circuit([cx(0, 1)], 2)
        d = sim.run_noisy(c, NoiseModel(p2=p2), shots, seed=21)
        want = p2 * 12 / 15
        assert abs(1 - d.probability(0b00) - want) < 4 * binom_sigma(want, shots)

    @pytest.mark.parametrize(
        "fewer, more", [(200, 300), (sim.TRAJECTORY_CHUNK, sim.TRAJECTORY_CHUNK + 500)]
    )
    def test_more_shots_extend_fewer(self, fewer, more):
        # trajectory t depends only on (seed, t), inside a chunk and across chunks;
        # 64 near-uniform outcomes make two independent samples differ below zero
        b = CircuitBuilder(6, 6)
        for q in range(6):
            b.h(q)
        b.measure(0, 0)
        b.add(x(1), condition=(0, 1))
        b.add(cx(1, 2))
        for q in range(1, 6):
            b.measure(q, q)
        c = b.build()
        noise = NoiseModel(p1=0.05, p2=0.1, p_meas=0.05)
        extra = sim.run_noisy(c, noise, more, seed=8).counts - sim.run_noisy(
            c, noise, fewer, seed=8
        ).counts
        assert (extra >= 0).all() and extra.sum() == more - fewer

    def test_seed_reproducibility(self):
        c = synth.lower(families.build(FamilyRequest("grover", OracleSpec(3, "011", "plain-mcz"))))
        noise = NoiseModel(p1=0.01, p2=0.02, p_meas=0.01)
        a = sim.run_noisy(c, noise, 5000, seed=42)
        b = sim.run_noisy(c, noise, 5000, seed=42)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        c = synth.lower(families.build(FamilyRequest("grover", OracleSpec(3, "011", "plain-mcz"))))
        noise = NoiseModel(p2=0.05)
        a = sim.run_noisy(c, noise, 5000, seed=1)
        b = sim.run_noisy(c, noise, 5000, seed=2)
        assert not np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize(
        "circuit, noise, seed, counts",
        [
            (
                families.build(FamilyRequest("wielomianer", OracleSpec(4, "1011", "plain-mcz"))),
                NoiseModel(p1=0.01, p2=0.01, p_meas=0.05), 5,
                [4, 5, 5, 4, 8, 4, 15, 9, 3, 4, 10, 3, 6, 6, 6, 8,
                 12, 1, 25, 6, 14, 6, 60, 22, 8, 5, 6, 1, 13, 1, 10, 10],
            ),
            (
                families.build(FamilyRequest(
                    "grover", OracleSpec(5, "10110", "measurement-assisted"))),
                NoiseModel(p1=0.01, p2=0.02, p_meas=0.03), 6,
                [10, 1, 3, 5, 2, 4, 5, 1, 2, 7, 4, 1, 4, 4, 5, 4,
                 8, 3, 1, 2, 6, 4, 4, 1, 6, 4, 3, 4, 4, 5, 9, 5,
                 7, 4, 0, 3, 8, 3, 2, 5, 4, 10, 9, 1, 19, 8, 3, 9,
                 3, 4, 7, 5, 7, 4, 6, 3, 5, 5, 4, 3, 3, 7, 4, 4],
            ),
        ],
        ids=["wielomianer-p43", "measurement-assisted-grover5"],
    )
    def test_seeded_counts_pinned(self, circuit, noise, seed, counts):
        # mid-circuit measurements, readout flips and conditioned gates; a
        # given seed keeps giving these counts
        d = sim.run_noisy(synth.compile(circuit), noise, 300, seed=seed)
        assert d.counts.tolist() == counts

    def test_memory_budget_edge(self, monkeypatch):
        # 2 sites and 2 terminal bits: 10 rows of 7 uniforms, 3 of them copied; hit
        # tables for 10 trajectories at 2 sites; the bookkeeping of 2 sites and 2
        # instructions; 11 rows of 4 amplitudes; and the fixed 16 KiB
        c = frag_circuit([h(0), cx(0, 1)], 2)
        need = 10 * (7 + 3) * 8 + 10 * 2 * 49 + 2 * 66 + 2 * 138 + 11 * 4 * 48 + (16 << 10)
        monkeypatch.setattr(sim, "MAX_NOISY_BYTES", need)
        assert sim.run_noisy(c, NoiseModel(p2=0.5), 10, seed=1).shots == 10

        def unexpected(*args, **kwargs):
            raise AssertionError("drew uniforms before checking the budget")

        monkeypatch.setattr(sim, "MAX_NOISY_BYTES", need - 1)
        monkeypatch.setattr(np.random, "default_rng", unexpected)
        with pytest.raises(OverBudget, match=r"10 trajectories of 7 uniforms .* over the"):
            sim.run_noisy(c, NoiseModel(p2=0.5), 10, seed=1)

    @pytest.mark.parametrize("p2", [0.01, 0.5, 1.0])
    def test_memory_peak_within_estimate(self, p2):
        # one run_noisy_template call over a compiled template, in one group,
        # after a warm-up call: the keys' estimates, summed, bound what a chunk
        # allocates at once, Pauli insertions and final sampling included; at
        # p1 = p2 = 1 every site is hit, and at 1 and 8 shots the per-call
        # bookkeeping dominates
        cases = [
            ("grover", 7, "ancilla-relphase", ["0110101"], 1024),
            ("grover", 3, "plain-mcz", [format(v, "03b") for v in range(8)], 2000),
            ("wielomianer", 4, "plain-mcz", [format(v, "04b") for v in range(16)], 400),
            ("grover", 6, "ancilla-relphase", ["000000", "010110", "101001", "111111"], 160),
        ]
        noise = NoiseModel(p2=p2)
        if p2 == 1.0:
            noise = NoiseModel(p1=1.0, p2=1.0, p_meas=0.5)
            cases.append(("grover", 7, "plain-mcz", ["0110101"], None))
            cases = [case[:4] + (shots,) for case in cases for shots in (1, 8)]
        for family, n, style, masks, shots in cases:
            plan = families.plan(FamilyRequest(family, OracleSpec(n, masks[0], style)))
            compiled = synth.compile_template(plan.template)
            seeds = list(range(3, 3 + len(masks)))
            sim.run_noisy_template(compiled, masks, noise, shots, seeds)
            tracemalloc.start()
            try:
                sim.run_noisy_template(compiled, masks, noise, shots, seeds)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            need = sum(noisy_needs(compiled, masks, shots))
            assert peak <= need, (family, n, style, len(masks), shots)

    def test_readout_flip_only(self):
        b = CircuitBuilder(1, 1)
        b.measure(0, 0)
        c = b.build()
        shots = 40000
        d = sim.run_noisy(c, NoiseModel(p_meas=0.25), shots, seed=3)
        p1 = d.probability(1)
        assert abs(p1 - 0.25) < 4 * binom_sigma(0.25, shots)

    def test_mid_circuit_measurement_sampled(self):
        b = CircuitBuilder(2, 2)
        b.h(0).measure(0, 0)
        b.add(x(1), condition=(0, 1))
        b.measure(1, 1)
        d = sim.run_noisy(b.build(), NoiseModel(), 20000, seed=9)
        p = d.as_probabilities()
        assert abs(p[0b00] - 0.5) < 4 * binom_sigma(0.5, 20000)
        assert abs(p[0b11] - 0.5) < 4 * binom_sigma(0.5, 20000)
        assert p[0b01] == 0 and p[0b10] == 0


class TestDistribution:
    def test_marginal_orders_bits(self):
        probs = np.zeros(8)
        probs[0b101] = 1.0
        d = Distribution(3, probabilities=probs)
        m = d.marginal([2, 0])
        assert m.probability(0b11) == 1.0
        with pytest.raises(ValidationError):
            d.marginal([0, 0])
        with pytest.raises(ValidationError):
            d.marginal([5])

    def test_tv_distance(self):
        a = Distribution(1, probabilities=np.array([1.0, 0.0]))
        b = Distribution(1, probabilities=np.array([0.5, 0.5]))
        assert abs(tv_distance(a, b) - 0.5) < 1e-12

    def test_counts_validation(self):
        with pytest.raises(ValidationError):
            Distribution(1, counts=np.array([3, 4]), shots=10)

    def test_nan_probabilities_refused(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            Distribution(1, probabilities=[float("nan"), float("nan")])

    def test_nan_statevector_refused(self):
        """A NaN angle that skips every circuit check fails the norm check, not silently."""
        ops = (h(0), rz(float("nan"), 0), h(0), measure(0, 0))
        c = Circuit._trusted(1, 1, tuple(Instruction(g) for g in ops), {})
        with pytest.raises(ValidationError, match="norm drifted"):
            sim.run_exact(c)
