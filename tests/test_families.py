"""Family builders: layouts, counts, reductions, oracle equivariance."""
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import run_deferred, tv_distance
from qsearch import families, qasm, sim, synth
from qsearch.circuit import census
from qsearch.errors import BadDiffuserSize, BadWidth, QsearchError, UnsupportedPartition
from qsearch.families import FamilyRequest, Partition
from qsearch.synth import OracleSpec


def data_distribution(circ):
    d = sim.run_exact(circ)
    return d.marginal(circ.metadata.get("data_clbits", list(range(d.n_bits))))


def p_success(circ, mask):
    return data_distribution(circ).probability(int(mask, 2))


def two_qubit_count(circ):
    return census(synth.compile(circ)).two_qubit_count


def grover_pt(n):
    N = 2**n
    return (3 - 4 / N) ** 2 / N


class TestGrover:
    @pytest.mark.parametrize("n,expected", [(2, 1.0), (3, 25 / 32), (5, (3 - 4 / 32) ** 2 / 32)])
    def test_closed_form(self, n, expected):
        c = families.build_grover(OracleSpec(n, "1" * n, "plain-mcz"), 1)
        assert abs(p_success(c, "1" * n) - expected) < 1e-12

    def test_relphase_five_qubits(self):
        c = families.build_grover(OracleSpec(5, "10110", "ancilla-relphase"), 1)
        assert abs(p_success(c, "10110") - grover_pt(5)) < 1e-12

    def test_oracle_calls_metadata(self):
        c = families.build_grover(OracleSpec(3, "101", "plain-mcz"), 2)
        assert c.metadata["oracle_calls"] == 2

    def test_single_call_metadata(self):
        assert families.build_grover(OracleSpec(3, "101", "plain-mcz"), 1).metadata["oracle_calls"] == 1


class TestPartial:
    @pytest.mark.parametrize(
        "n,k",
        [(4, 3), (6, 3), (5, 4), (5, 3), (4, 2)],
    )
    def test_block_mean_closed_form(self, n, k):
        # one oracle call then a k-qubit diffuser: amplitude of the marked
        # element becomes (3 - 2^{2-k}) / sqrt(N)
        c = families.build_partial(OracleSpec(n, "1" * n, "plain-mcz"), k)
        expected = (3 - 2 ** (2 - k)) ** 2 / 2**n
        assert abs(p_success(c, "1" * n) - expected) < 1e-12

    def test_k_equals_n_is_grover(self):
        a = families.build_partial(OracleSpec(4, "0110", "plain-mcz"), 4)
        b = families.build_grover(OracleSpec(4, "0110", "plain-mcz"), 1)
        assert tv_distance(data_distribution(a), data_distribution(b)) < 1e-12

    def test_bad_diffuser_size(self):
        with pytest.raises(BadDiffuserSize):
            families.build_partial(OracleSpec(4, "0110", "plain-mcz"), 5)

    def test_single_call_metadata(self):
        c = families.build_partial(OracleSpec(4, "0110", "plain-mcz"), 3)
        assert c.metadata["oracle_calls"] == 1


class TestWojter:
    SPEC = OracleSpec(5, "10110", "ancilla-relphase")
    PART = Partition((3, 2))

    def test_theoretical_success(self):
        # block-2 search is exact, so p_t = one 8-element Grover iteration
        c = families.build_wojter(self.SPEC, self.PART)
        assert abs(p_success(c, "10110") - 25 / 32) < 1e-12

    def test_partial_uncompute_count(self):
        # interleaved layout: 3 folds + 4 oracle pieces + 3 G2 + G3
        c = families.build_wojter(self.SPEC, self.PART, uncompute="partial")
        assert two_qubit_count(c) == 51
        full = families.build_wojter(self.SPEC, self.PART, uncompute="full")
        assert two_qubit_count(c) <= two_qubit_count(full)

    def test_fused_count_within_target(self):
        # reference target 31; the fused algebraic collapse reaches 25
        c = families.build_wojter(self.SPEC, self.PART, fused=True)
        assert two_qubit_count(c) <= 36

    def test_fused_matches_faithful_all_masks(self):
        for v in range(32):
            mask = format(v, "05b")
            spec = OracleSpec(5, mask, "ancilla-relphase")
            a = families.build_wojter(spec, self.PART)
            b = families.build_wojter(spec, self.PART, fused=True)
            assert tv_distance(data_distribution(a), data_distribution(b)) < 1e-10

    def test_degenerate_partition_is_grover(self):
        a = families.build_wojter(self.SPEC, Partition((5,)))
        b = families.build_grover(self.SPEC, 1)
        assert tv_distance(data_distribution(a), data_distribution(b)) < 1e-12

    def test_styles_agree(self):
        a = families.build_wojter(self.SPEC, self.PART)
        b = families.build_wojter(OracleSpec(5, "10110", "plain-mcz"), self.PART)
        assert tv_distance(data_distribution(a), data_distribution(b)) < 1e-10

    def test_measurement_assisted_uncompute_agrees(self):
        c = families.build_wojter(self.SPEC, self.PART, uncompute="measurement-assisted")
        a = families.build_wojter(self.SPEC, self.PART)
        assert tv_distance(data_distribution(a), data_distribution(c)) < 1e-10

    def test_unsupported_partition(self):
        with pytest.raises(UnsupportedPartition):
            families.build_wojter(self.SPEC, Partition((1, 1, 3)))
        with pytest.raises(UnsupportedPartition):
            families.build_wojter(OracleSpec(6, "101101", "ancilla-relphase"), Partition((3, 3)))


class TestWojterAA:
    SPEC = OracleSpec(5, "10110", "ancilla-relphase")
    PART = Partition((3, 2))

    def test_amplification_improves(self):
        base = families.build_wojter(self.SPEC, self.PART)
        aa = families.build_wojter_aa(self.SPEC, self.PART)
        assert p_success(aa, "10110") > p_success(base, "10110")

    def test_degenerate_is_two_iteration_grover(self):
        a = families.build_wojter_aa(self.SPEC, Partition((5,)))
        b = families.build_grover(self.SPEC, 2)
        assert tv_distance(data_distribution(a), data_distribution(b)) < 1e-12
        assert a.metadata["family"] == "wojter-aa"
        assert '"family": "wojter-aa"' in qasm.serialize(a)

    def test_needs_a_partition(self):
        with pytest.raises(UnsupportedPartition, match="^wojter-aa needs a partition$"):
            families.build_wojter_aa(self.SPEC, None)

    def test_call_count(self):
        base = families.build_wojter(self.SPEC, self.PART)
        aa = families.build_wojter_aa(self.SPEC, self.PART)
        assert aa.metadata["oracle_calls"] == base.metadata["oracle_calls"] + 1


class TestDrzewker:
    SPEC = OracleSpec(5, "10110", "ancilla-relphase")
    PART = Partition((3, 2))

    def test_partial_uncompute_count(self):
        c = families.build_drzewker(self.SPEC, self.PART, uncompute="partial")
        assert two_qubit_count(c) <= 50
        assert two_qubit_count(c) == 44  # reference count

    def test_partial_vs_full(self):
        on = families.build_drzewker(self.SPEC, self.PART, uncompute="partial")
        off = families.build_drzewker(self.SPEC, self.PART, uncompute="full")
        assert tv_distance(data_distribution(on), data_distribution(off)) < 1e-10
        assert two_qubit_count(on) < two_qubit_count(off)

    def test_degenerate(self):
        a = families.build_drzewker(self.SPEC, Partition((5,)))
        b = families.build_grover(self.SPEC, 1)
        assert tv_distance(data_distribution(a), data_distribution(b)) < 1e-12


class TestPartialDrzewker:
    SPEC = OracleSpec(5, "10110", "ancilla-relphase")
    PART = Partition((3, 2))

    def test_prefix_of_drzewker(self):
        # canonical builds: the truncation is literally a prefix
        pd = families.build_partial_drzewker(self.SPEC, self.PART, uncompute="full")
        d = families.build_drzewker(self.SPEC, self.PART, uncompute="full")
        pd_body = [i for i in pd.instructions if i.gate.name != "measure"]
        d_body = [i for i in d.instructions if i.gate.name != "measure"]
        assert len(pd_body) < len(d_body)
        assert pd_body == d_body[: len(pd_body)]

    def test_reference_value_recorded(self):
        pd = families.build_partial_drzewker(self.SPEC, self.PART)
        assert 0.0 < p_success(pd, "10110") < 1.0

    @pytest.mark.parametrize("mode", families.UNCOMPUTE_MODES)
    def test_build_forwards_uncompute(self, mode):
        c = families.build(
            FamilyRequest("partial-drzewker", self.SPEC, partition=self.PART, uncompute=mode)
        )
        assert c.metadata["uncompute"] == mode
        assert c == families.build_partial_drzewker(self.SPEC, self.PART, uncompute=mode)

    def test_fewer_gates_than_full(self):
        pd = families.build_partial_drzewker(self.SPEC, self.PART)
        d = families.build_drzewker(self.SPEC, self.PART, uncompute="partial")
        assert two_qubit_count(pd) < two_qubit_count(d)


class TestWielomianer:
    def test_single_mid_circuit_measurement(self):
        c = families.build_wielomianer_p43(OracleSpec(4, "1011", "plain-mcz"))
        measures = [i for i in c.instructions if i.gate.name == "measure"]
        mid = [m for m in measures if m.gate.clbit == 4]
        assert len(mid) == 1

    def test_deferred_equivalence(self):
        c = families.build_wielomianer_p43(OracleSpec(4, "1011", "plain-mcz"))
        branching = sim.run_exact(c).marginal([0, 1, 2, 3])
        deferred = run_deferred(c).marginal([0, 1, 2, 3])
        assert tv_distance(branching, deferred) < 1e-10

    def test_flipped_condition_convention_differs(self):
        # guard: conditioning on c==1 changes the output for some oracle
        diffs = []
        for v in range(16):
            mask = format(v, "04b")
            c = families.build_wielomianer_p43(OracleSpec(4, mask, "plain-mcz"))
            flipped_instrs = tuple(
                i if i.condition is None else type(i)(i.gate, (i.condition[0], 1))
                for i in c.instructions
            )
            flipped = type(c)(c.n_qubits, c.n_clbits, flipped_instrs, dict(c.metadata))
            d1 = sim.run_exact(c).marginal([0, 1, 2, 3])
            d2 = sim.run_exact(flipped).marginal([0, 1, 2, 3])
            diffs.append(tv_distance(d1, d2))
        assert max(diffs) > 1e-3

    def test_bad_width(self):
        with pytest.raises(BadWidth):
            families.build_wielomianer_p43(OracleSpec(3, "101", "plain-mcz"))

    def test_single_call_metadata(self):
        c = families.build_wielomianer_p43(OracleSpec(4, "1011", "plain-mcz"))
        assert c.metadata["oracle_calls"] == 1


def _family_cases():
    return [
        ("grover", lambda m: families.build_grover(OracleSpec(4, m, "ancilla-relphase"), 1), 4),
        ("partial", lambda m: families.build_partial(OracleSpec(4, m, "ancilla-relphase"), 3), 4),
        ("wojter", lambda m: families.build_wojter(
            OracleSpec(4, m, "ancilla-relphase"), Partition((2, 2))), 4),
        ("wojter-aa", lambda m: families.build_wojter_aa(
            OracleSpec(4, m, "ancilla-relphase"), Partition((2, 2))), 4),
        ("drzewker", lambda m: families.build_drzewker(
            OracleSpec(4, m, "ancilla-relphase"), Partition((2, 2))), 4),
        ("partial-drzewker", lambda m: families.build_partial_drzewker(
            OracleSpec(4, m, "ancilla-relphase"), Partition((2, 2))), 4),
        ("wielomianer", lambda m: families.build_wielomianer_p43(OracleSpec(4, m, "plain-mcz")), 4),
    ]


class TestInvariants:
    @pytest.mark.parametrize("name,builder,n", _family_cases())
    def test_oracle_equivariance(self, name, builder, n):
        ref = None
        for v in range(1 << n):
            mask = format(v, f"0{n}b")
            probs = data_distribution(builder(mask)).as_probabilities()
            relabeled = probs[np.arange(probs.size) ^ v]
            if ref is None:
                ref = relabeled
            else:
                assert np.abs(relabeled - ref).max() < 1e-10, name

    @pytest.mark.parametrize("name,builder,n", _family_cases())
    def test_round_trip_and_census(self, name, builder, n):
        c = builder("1" * n)
        assert qasm.parse(qasm.serialize(c)) == c
        cens = census(synth.lower(c))
        assert cens.two_qubit_count > 0


PARTIAL_UNCOMPUTE_COUNTS = {
    (3, 2): {"drzewker": 44, "wojter": 51, "wojter-aa": 81, "partial-drzewker": 31},
    (4, 1): {"drzewker": 54, "wojter": 55, "wojter-aa": 88, "partial-drzewker": 44},
}


@pytest.mark.parametrize("mask", [format(v, "05b") for v in range(32)])
def test_partial_uncompute_counts_every_mask(mask):
    spec = OracleSpec(5, mask, "ancilla-relphase")
    for parts, counts in PARTIAL_UNCOMPUTE_COUNTS.items():
        for family, expected in counts.items():
            c = families.build(FamilyRequest(family, spec, partition=Partition(parts)))
            assert two_qubit_count(c) == expected, (parts, family)


@pytest.mark.parametrize("family", ["drzewker", "wojter", "wojter-aa", "partial-drzewker"])
def test_one_wire_first_block_marks_the_mask(family):
    """A one-wire block 1 is its own AND wire, X-conjugated to the mask."""
    part = Partition((1, 2))
    for mask in ("000", "011", "100", "111"):
        ref = data_distribution(
            families.build(FamilyRequest(family, OracleSpec(3, mask), partition=part))
        )
        for style in ("ancilla-relphase", "measurement-assisted"):
            for mode in families.UNCOMPUTE_MODES:
                req = FamilyRequest(
                    family, OracleSpec(3, mask, style), partition=part, uncompute=mode
                )
                d = data_distribution(families.build(req))
                assert tv_distance(d, ref) < 1e-12, (mask, style, mode)



def _option_sets(family, style, max_n=5):
    """One request per build option set at n <= max_n, as conftest.family_mask_sets
    makes them; the n = 6 grover and partial rows of the compile-exact benchmark."""
    for n, uncompute, fused in itertools.product(
        range(1, max_n + 1), families.UNCOMPUTE_MODES, (False, True)
    ):
        if fused and family != "wojter":
            continue
        partition = Partition((n - 2, 2)) if n >= 4 else Partition((n - 1, 1)) if n >= 2 else None
        yield FamilyRequest(family, OracleSpec(n, "0" * n, style), partition=partition,
                            diffuser_size=max(1, n - 1), uncompute=uncompute, fused=fused)
    if family in ("grover", "partial") and style == "plain-mcz":
        yield FamilyRequest(family, OracleSpec(6, "0" * 6, style), diffuser_size=3)


class TestBuildMasks:
    """build_masks makes each mask-independent fragment once per call; its
    circuits must be those families.build makes for each mask alone."""

    @pytest.mark.parametrize("style", synth.ORACLE_STYLES)
    @pytest.mark.parametrize("family", families.FAMILIES)
    def test_equals_build_of_each_mask(self, family, style):
        for request in _option_sets(family, style):
            n = request.oracle.n
            every = [format(v, f"0{n}b") for v in range(1 << n)]
            for masks in (every, every[::-1], ["1" * n, ("10" * n)[:n]]):
                alone = []
                try:
                    for mask in masks:
                        spec = OracleSpec(n, mask, style)
                        alone.append(families.build(replace(request, oracle=spec)))
                except QsearchError as exc:
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        next(families.build_masks(request, masks))
                    break
                per_run = list(families.build_masks(request, masks))
                assert [c.metadata["mask"] for c in per_run] == masks
                for one, c in zip(alone, per_run):
                    assert (c.n_qubits, c.n_clbits) == (one.n_qubits, one.n_clbits)
                    assert c.instructions == one.instructions, (request, c.metadata["mask"])
                    assert c.metadata == one.metadata

    @pytest.mark.parametrize("family,fused", [("wojter", False), ("wojter", True),
                                              ("wielomianer", False)])
    def test_each_circuit_owns_its_metadata(self, family, fused):
        n = 4 if family == "wielomianer" else 5
        request = FamilyRequest(family, OracleSpec(n, "0" * n, "ancilla-relphase"),
                                partition=Partition((3, 2)), fused=fused)
        masks = ["0" * n, "1" * n, "0" * (n - 1) + "1"]
        first, *others = families.build_masks(request, masks)
        lists = [key for key, value in first.metadata.items() if isinstance(value, list)]
        assert len(lists) >= 2
        for key in lists:
            first.metadata[key].append(99)
        first.metadata["extra"] = 1
        for mask, c in zip(masks[1:], others):
            alone = families.build(replace(request, oracle=OracleSpec(n, mask, "ancilla-relphase")))
            assert c.metadata == alone.metadata

    def test_bad_mask_refused_before_any_circuit(self):
        request = FamilyRequest("grover", OracleSpec(3, "000"))
        with pytest.raises(QsearchError, match="'10' is not a pattern of 3 bits"):
            next(families.build_masks(request, ["000", "10"]))

    def test_no_mask_gives_no_circuit(self):
        assert list(families.build_masks(FamilyRequest("grover", OracleSpec(3, "000")), [])) == []
