"""Family builders: layouts, counts, reductions, oracle equivariance."""
import itertools
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import family_requests, per_mask_tidy_reference, run_deferred, tv_distance
from qsearch import circuit as circuit_module
from qsearch import cli, families, qasm, sim, synth
from qsearch.circuit import CircuitTemplate, census, x
from qsearch.errors import (
    BadDiffuserSize,
    BadMask,
    BadWidth,
    QsearchError,
    UnsupportedPartition,
    ValidationError,
)
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
        c = families.build(FamilyRequest("grover", OracleSpec(n, "1" * n, "plain-mcz")))
        assert abs(p_success(c, "1" * n) - expected) < 1e-12

    def test_relphase_five_qubits(self):
        c = families.build(FamilyRequest("grover", OracleSpec(5, "10110", "ancilla-relphase")))
        assert abs(p_success(c, "10110") - grover_pt(5)) < 1e-12

    def test_oracle_calls_metadata(self):
        c = families.build(FamilyRequest("grover", OracleSpec(3, "101", "plain-mcz"), iterations=2))
        assert c.metadata["oracle_calls"] == 2

    def test_single_call_metadata(self):
        assert families.build(FamilyRequest(
            "grover", OracleSpec(3, "101", "plain-mcz"))).metadata["oracle_calls"] == 1


class TestPartial:
    @pytest.mark.parametrize(
        "n,k",
        [(4, 3), (6, 3), (5, 4), (5, 3), (4, 2)],
    )
    def test_block_mean_closed_form(self, n, k):
        # one oracle call then a k-qubit diffuser: amplitude of the marked
        # element becomes (3 - 2^{2-k}) / sqrt(N)
        c = families.build(FamilyRequest(
            "partial", OracleSpec(n, "1" * n, "plain-mcz"), diffuser_size=k))
        expected = (3 - 2 ** (2 - k)) ** 2 / 2**n
        assert abs(p_success(c, "1" * n) - expected) < 1e-12

    def test_k_equals_n_is_grover(self):
        a = families.build(FamilyRequest(
            "partial", OracleSpec(4, "0110", "plain-mcz"), diffuser_size=4))
        b = families.build(FamilyRequest("grover", OracleSpec(4, "0110", "plain-mcz")))
        assert tv_distance(data_distribution(a), data_distribution(b)) < 1e-12

    def test_bad_diffuser_size(self):
        with pytest.raises(BadDiffuserSize):
            families.build(FamilyRequest(
                "partial", OracleSpec(4, "0110", "plain-mcz"), diffuser_size=5))

    def test_single_call_metadata(self):
        c = families.build(FamilyRequest(
            "partial", OracleSpec(4, "0110", "plain-mcz"), diffuser_size=3))
        assert c.metadata["oracle_calls"] == 1


class TestWojter:
    SPEC = OracleSpec(5, "10110", "ancilla-relphase")
    PART = Partition((3, 2))

    def test_theoretical_success(self):
        # block-2 search is exact, so p_t = one 8-element Grover iteration
        c = families.build(FamilyRequest("wojter", self.SPEC, partition=self.PART))
        assert abs(p_success(c, "10110") - 25 / 32) < 1e-12

    def test_partial_uncompute_count(self):
        # interleaved layout: 3 folds + 4 oracle pieces + 3 G2 + G3
        c = families.build(FamilyRequest(
            "wojter", self.SPEC, partition=self.PART, uncompute="partial"))
        assert two_qubit_count(c) == 51
        full = families.build(FamilyRequest(
            "wojter", self.SPEC, partition=self.PART, uncompute="full"))
        assert two_qubit_count(c) <= two_qubit_count(full)

    def test_fused_count_within_target(self):
        # reference target 31; the fused algebraic collapse reaches 25
        c = families.build(FamilyRequest("wojter", self.SPEC, partition=self.PART, fused=True))
        assert two_qubit_count(c) <= 36

    def test_fused_matches_faithful_all_masks(self):
        for v in range(32):
            mask = format(v, "05b")
            spec = OracleSpec(5, mask, "ancilla-relphase")
            a = families.build(FamilyRequest("wojter", spec, partition=self.PART))
            b = families.build(FamilyRequest("wojter", spec, partition=self.PART, fused=True))
            assert tv_distance(data_distribution(a), data_distribution(b)) < 1e-10

    def test_degenerate_partition_is_grover(self):
        a = families.build(FamilyRequest("wojter", self.SPEC, partition=Partition((5,))))
        b = families.build(FamilyRequest("grover", self.SPEC))
        assert tv_distance(data_distribution(a), data_distribution(b)) < 1e-12

    def test_styles_agree(self):
        a = families.build(FamilyRequest("wojter", self.SPEC, partition=self.PART))
        b = families.build(FamilyRequest(
            "wojter", OracleSpec(5, "10110", "plain-mcz"), partition=self.PART))
        assert tv_distance(data_distribution(a), data_distribution(b)) < 1e-10

    def test_measurement_assisted_uncompute_agrees(self):
        c = families.build(FamilyRequest(
            "wojter", self.SPEC, partition=self.PART, uncompute="measurement-assisted"))
        a = families.build(FamilyRequest("wojter", self.SPEC, partition=self.PART))
        assert tv_distance(data_distribution(a), data_distribution(c)) < 1e-10

    def test_unsupported_partition(self):
        with pytest.raises(UnsupportedPartition):
            families.build(FamilyRequest("wojter", self.SPEC, partition=Partition((1, 1, 3))))
        with pytest.raises(UnsupportedPartition):
            families.build(FamilyRequest(
                "wojter", OracleSpec(6, "101101", "ancilla-relphase"), partition=Partition((3, 3))))


class TestWojterAA:
    SPEC = OracleSpec(5, "10110", "ancilla-relphase")
    PART = Partition((3, 2))

    def test_amplification_improves(self):
        base = families.build(FamilyRequest("wojter", self.SPEC, partition=self.PART))
        aa = families.build(FamilyRequest("wojter-aa", self.SPEC, partition=self.PART))
        assert p_success(aa, "10110") > p_success(base, "10110")

    def test_degenerate_is_two_iteration_grover(self):
        a = families.build(FamilyRequest("wojter-aa", self.SPEC, partition=Partition((5,))))
        b = families.build(FamilyRequest("grover", self.SPEC, iterations=2))
        assert tv_distance(data_distribution(a), data_distribution(b)) < 1e-12
        assert a.metadata["family"] == "wojter-aa"
        assert '"family": "wojter-aa"' in qasm.serialize(a)

    def test_needs_a_partition(self):
        with pytest.raises(UnsupportedPartition, match="^partition: wojter-aa needs a partition$"):
            families.build(FamilyRequest("wojter-aa", self.SPEC, partition=None))

    def test_call_count(self):
        base = families.build(FamilyRequest("wojter", self.SPEC, partition=self.PART))
        aa = families.build(FamilyRequest("wojter-aa", self.SPEC, partition=self.PART))
        assert aa.metadata["oracle_calls"] == base.metadata["oracle_calls"] + 1


class TestDrzewker:
    SPEC = OracleSpec(5, "10110", "ancilla-relphase")
    PART = Partition((3, 2))

    def test_partial_uncompute_count(self):
        c = families.build(FamilyRequest(
            "drzewker", self.SPEC, partition=self.PART, uncompute="partial"))
        assert two_qubit_count(c) <= 50
        assert two_qubit_count(c) == 44  # reference count

    def test_partial_vs_full(self):
        on = families.build(FamilyRequest(
            "drzewker", self.SPEC, partition=self.PART, uncompute="partial"))
        off = families.build(FamilyRequest(
            "drzewker", self.SPEC, partition=self.PART, uncompute="full"))
        assert tv_distance(data_distribution(on), data_distribution(off)) < 1e-10
        assert two_qubit_count(on) < two_qubit_count(off)

    def test_degenerate(self):
        a = families.build(FamilyRequest("drzewker", self.SPEC, partition=Partition((5,))))
        b = families.build(FamilyRequest("grover", self.SPEC))
        assert tv_distance(data_distribution(a), data_distribution(b)) < 1e-12


class TestPartialDrzewker:
    SPEC = OracleSpec(5, "10110", "ancilla-relphase")
    PART = Partition((3, 2))

    def test_prefix_of_drzewker(self):
        # canonical builds: the truncation is literally a prefix
        pd = families.build(FamilyRequest(
            "partial-drzewker", self.SPEC, partition=self.PART, uncompute="full"))
        d = families.build(FamilyRequest(
            "drzewker", self.SPEC, partition=self.PART, uncompute="full"))
        pd_body = [i for i in pd.instructions if i.gate.name != "measure"]
        d_body = [i for i in d.instructions if i.gate.name != "measure"]
        assert len(pd_body) < len(d_body)
        assert pd_body == d_body[: len(pd_body)]

    def test_reference_value_recorded(self):
        pd = families.build(FamilyRequest("partial-drzewker", self.SPEC, partition=self.PART))
        assert 0.0 < p_success(pd, "10110") < 1.0

    @pytest.mark.parametrize("mode", families.UNCOMPUTE_MODES)
    def test_build_forwards_uncompute(self, mode):
        c = families.build(
            FamilyRequest("partial-drzewker", self.SPEC, partition=self.PART, uncompute=mode)
        )
        assert c.metadata["uncompute"] == mode
        assert c == families.build(FamilyRequest(
            "partial-drzewker", self.SPEC, partition=self.PART, uncompute=mode))

    def test_fewer_gates_than_full(self):
        pd = families.build(FamilyRequest("partial-drzewker", self.SPEC, partition=self.PART))
        d = families.build(FamilyRequest(
            "drzewker", self.SPEC, partition=self.PART, uncompute="partial"))
        assert two_qubit_count(pd) < two_qubit_count(d)


class TestWielomianer:
    def test_single_mid_circuit_measurement(self):
        c = families.build(FamilyRequest("wielomianer", OracleSpec(4, "1011", "plain-mcz")))
        measures = [i for i in c.instructions if i.gate.name == "measure"]
        mid = [m for m in measures if m.gate.clbit == 4]
        assert len(mid) == 1

    def test_deferred_equivalence(self):
        c = families.build(FamilyRequest("wielomianer", OracleSpec(4, "1011", "plain-mcz")))
        branching = sim.run_exact(c).marginal([0, 1, 2, 3])
        deferred = run_deferred(c).marginal([0, 1, 2, 3])
        assert tv_distance(branching, deferred) < 1e-10

    def test_flipped_condition_convention_differs(self):
        # guard: conditioning on c==1 changes the output for some oracle
        diffs = []
        for v in range(16):
            mask = format(v, "04b")
            c = families.build(FamilyRequest("wielomianer", OracleSpec(4, mask, "plain-mcz")))
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
            families.build(FamilyRequest("wielomianer", OracleSpec(3, "101", "plain-mcz")))

    def test_single_call_metadata(self):
        c = families.build(FamilyRequest("wielomianer", OracleSpec(4, "1011", "plain-mcz")))
        assert c.metadata["oracle_calls"] == 1


def _family_cases():
    def case(family, style="ancilla-relphase", **options):
        return family, lambda m: families.build(FamilyRequest(
            family, OracleSpec(4, m, style), **options)), 4

    return [
        case("grover"),
        case("partial", diffuser_size=3),
        case("wojter", partition=Partition((2, 2))),
        case("wojter-aa", partition=Partition((2, 2))),
        case("drzewker", partition=Partition((2, 2))),
        case("partial-drzewker", partition=Partition((2, 2))),
        case("wielomianer", "plain-mcz"),
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



_BLOCKS = "wojter, wojter-aa, drzewker, partial-drzewker"


@pytest.mark.parametrize(
    "family, mask, style, options, message",
    [
        ("partial", "1011", "plain-mcz", dict(iterations=3),
         "iterations: only grover repeats its round, got 3 for partial"),
        ("wojter", "10110", "plain-mcz", dict(partition=(3, 2), diffuser_size=2),
         "diffuser_size: only partial takes a diffuser size, not wojter"),
        ("grover", "10110", "plain-mcz", dict(partition=(3, 2)),
         f"partition: only {_BLOCKS} take a partition, not grover"),
        ("drzewker", "10110", "plain-mcz", dict(partition=(3, 2), fused=True),
         "fused: only wojter has a fused form, not drzewker"),
        ("wielomianer", "1011", "plain-mcz", dict(uncompute="full"),
         f"uncompute: only {_BLOCKS} take an uncompute mode, not wielomianer"),
        ("grover", "101", "plain-mcz", dict(uncompute="measurement-assisted"),
         f"uncompute: only {_BLOCKS} take an uncompute mode, not grover"),
        ("wojter", "10110", "plain-mcz", dict(partition=(3, 2), fused=True, uncompute="full"),
         "uncompute: the fused form of wojter has no uncompute mode"),
        ("drzewker", "1011", "plain-mcz", dict(partition=(4,), uncompute="full"),
         "uncompute: with the one-part partition [4] drzewker is grover, which takes no "
         "uncompute mode"),
        ("wojter-aa", "10110", "plain-mcz",
         dict(partition=(3, 2), uncompute="measurement-assisted"),
         "uncompute: plain-mcz has no ancillas to measure, so measurement-assisted builds "
         "what full builds"),
    ],
    ids=["iterations", "diffuser-size", "partition", "fused", "uncompute-wielomianer",
         "uncompute-grover", "uncompute-fused", "uncompute-one-part", "uncompute-plain-mcz"],
)
def test_option_the_family_ignores_refused(family, mask, style, options, message):
    """The request refuses what `qsearch run` and `build` refuse, with their text."""
    if "partition" in options:
        options["partition"] = Partition(options["partition"])
    with pytest.raises(ValidationError) as info:
        families.build(FamilyRequest(family, OracleSpec(len(mask), mask, style), **options))
    assert str(info.value) == message


@pytest.mark.parametrize("style", synth.ORACLE_STYLES)
def test_one_part_partition_is_grover_in_the_requested_style(style):
    """A one-part partition builds Grover in the style asked for: one round,
    and wojter-aa's closing round as a second."""
    for n in (3, 4):
        spec = OracleSpec(n, "1" * (n - 1) + "0", style)
        for family in families.BLOCK_FAMILIES:
            c = families.build(FamilyRequest(family, spec, partition=Partition((n,))))
            grover = families.build(FamilyRequest(
                "grover", spec, iterations=2 if family == "wojter-aa" else 1))
            assert (c.n_qubits, c.n_clbits) == (grover.n_qubits, grover.n_clbits)
            assert c.instructions == grover.instructions, (family, n)
            assert c.metadata["oracle_style"] == style


@pytest.mark.parametrize("style", synth.ORACLE_STYLES)
def test_every_family_writes_data_bits_and_its_oracle_calls(style):
    """Every family, one-part and fused forms included, writes data_clbits
    and oracle_calls, and the calls are those its request counts before any
    build."""
    spec = OracleSpec(4, "1011", style)
    cases = [
        (FamilyRequest("grover", spec, iterations=3), 3),
        (FamilyRequest("partial", spec), 1),
        (FamilyRequest("wielomianer", spec), 1),
        (FamilyRequest("wojter", spec, partition=Partition((2, 2)), fused=True), 4),
        (FamilyRequest("wojter", spec, partition=Partition((4,)), fused=True), 1),
    ]
    calls = {"wojter": 4, "wojter-aa": 5, "drzewker": 3, "partial-drzewker": 2}
    for family, two_part in calls.items():
        cases.append((FamilyRequest(family, spec, partition=Partition((3, 1))), two_part))
        cases.append((FamilyRequest(family, spec, partition=Partition((4,))),
                      2 if family == "wojter-aa" else 1))
    for request, expected in cases:
        c = families.build(request)
        assert c.metadata["data_clbits"] == [0, 1, 2, 3], request
        assert c.metadata["oracle_calls"] == request.oracle_calls == expected, request


def _option_sets(family, style, max_n=5):
    """conftest.family_requests, then the n = 6 grover and partial rows of the
    compile-exact benchmark."""
    yield from family_requests(family, style, max_n)
    if family in ("grover", "partial") and style == "plain-mcz":
        yield FamilyRequest(family, OracleSpec(6, "0" * 6, style),
                            diffuser_size=3 if family == "partial" else None)


class TestBuildMasks:
    """families.plan makes each mask-independent fragment, and with partial
    uncompute tidies the template, once per option set; the circuits
    Plan.fill makes of it must be those the per-mask reference makes.  (Named
    for families.build_masks, the per-run builder that Plan.fill replaced.)"""

    @pytest.mark.parametrize("style", synth.ORACLE_STYLES)
    @pytest.mark.parametrize("family", families.FAMILIES)
    def test_equals_build_of_each_mask(self, family, style):
        """Every mask list filled from one plan gives each mask the circuit
        it gets alone.

        families.build is the fill of one mask from a plan of its own, so
        this checks that a circuit does not depend on the other masks filled
        from its plan; it is not an independent check of the template path,
        which test_equals_per_mask_tidy_reference makes.
        """
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
                        families.plan(request).fill(masks[0])
                    break
                plan = families.plan(request)
                per_run = [plan.fill(mask) for mask in masks]
                assert [c.metadata["mask"] for c in per_run] == masks
                for one, c in zip(alone, per_run):
                    assert (c.n_qubits, c.n_clbits) == (one.n_qubits, one.n_clbits)
                    assert c.instructions == one.instructions, (request, c.metadata["mask"])
                    assert c.metadata == one.metadata

    @pytest.mark.parametrize("family,fused", [("wojter", False), ("wojter", True),
                                              ("wielomianer", False)])
    def test_each_circuit_owns_its_metadata(self, family, fused):
        n = 4 if family == "wielomianer" else 5
        blocks = dict(partition=Partition((3, 2)), fused=fused) if family == "wojter" else {}
        request = FamilyRequest(family, OracleSpec(n, "0" * n, "ancilla-relphase"), **blocks)
        masks = ["0" * n, "1" * n, "0" * (n - 1) + "1"]
        plan = families.plan(request)
        first, *others = [plan.fill(mask) for mask in masks]
        lists = [key for key, value in first.metadata.items() if isinstance(value, list)]
        assert len(lists) >= 2
        for key in lists:
            first.metadata[key].append(99)
        first.metadata["extra"] = 1
        for mask, c in zip(masks[1:], others):
            alone = families.build(replace(request, oracle=OracleSpec(n, mask, "ancilla-relphase")))
            assert c.metadata == alone.metadata

    @pytest.mark.parametrize("style", synth.ORACLE_STYLES)
    @pytest.mark.parametrize("family", families.BLOCK_FAMILIES)
    def test_equals_per_mask_tidy_reference(self, family, style):
        """With partial uncompute, filling the template tidied once gives each
        mask's circuit filled and then tidied, at both two-block partitions."""
        for n, k2 in itertools.product(range(2, 7), (1, 2)):
            if n - k2 < 1:
                continue
            masks = [format(v, f"0{n}b") for v in range(1 << n)]
            request = FamilyRequest(
                family, OracleSpec(n, masks[0], style), partition=Partition((n - k2, k2))
            )
            plan = families.plan(request)
            pairs = zip([plan.fill(mask) for mask in masks],
                        per_mask_tidy_reference(request, masks), strict=True)
            for c, ref in pairs:
                assert (c.n_qubits, c.n_clbits) == (ref.n_qubits, ref.n_clbits)
                assert c.instructions == ref.instructions, (request, c.metadata["mask"])
                assert c.metadata == ref.metadata

    @pytest.mark.parametrize("count", [1, 2, 32])
    def test_tidy_passes_run_twice_per_call(self, count, monkeypatch):
        """The probe, by position, and the check, through the passes
        themselves: two runs of each pass's decisions per plan, whatever the
        mask count."""
        calls = []
        for name in ("_cancel_flags", "_strip_flags"):
            tidy = getattr(circuit_module, name)
            monkeypatch.setattr(circuit_module, name, lambda *args, tidy=tidy, name=name:
                                calls.append(name) or tidy(*args))
        masks = [format(v, "05b") for v in range(count)]
        for family in families.BLOCK_FAMILIES:
            request = FamilyRequest(family, OracleSpec(5, masks[0], "ancilla-relphase"),
                                    partition=Partition((3, 2)))
            calls.clear()
            plan = families.plan(request)
            assert len([plan.fill(mask) for mask in masks]) == count
            assert Counter(calls) == {"_cancel_flags": 2, "_strip_flags": 2}

    def test_each_kept_fixed_instruction_checked_once(self, monkeypatch):
        """Each fixed position is checked when the template is made, and not
        again by the tidy or by a fill."""
        checked, templates = Counter(), []
        validate, tidied = circuit_module._validate_instruction, CircuitTemplate.tidied
        monkeypatch.setattr(circuit_module, "_validate_instruction",
                            lambda *args: checked.update([id(args[-1])]) or validate(*args))
        monkeypatch.setattr(CircuitTemplate, "tidied",
                            lambda self, *keys: templates.append(self) or tidied(self, *keys))
        for family, count in itertools.product(families.BLOCK_FAMILIES, (2, 32)):
            checked.clear()
            templates.clear()
            request = FamilyRequest(family, OracleSpec(5, "00000", "ancilla-relphase"),
                                    partition=Partition((3, 2)))
            plan = families.plan(request)
            first, *rest = [plan.fill(format(v, "05b")) for v in range(count)]
            (template,) = templates
            positions = Counter(id(i) for part in template._fixed for i in part)
            kept = set(map(id, first.instructions)).intersection(
                *(map(id, c.instructions) for c in rest))
            assert kept and kept <= set(positions)
            assert {k: checked[k] for k in kept} == {k: positions[k] for k in kept}

    def test_probe_gate_cancelling_a_fixed_gate_is_an_internal_error(
        self, monkeypatch, tmp_path, capsys
    ):
        """A fixed X right after each conjugation hole cancels the all-zeros
        probe's X, but not the all-ones check's: one error line, exit 2, that
        names no mask, as the template is the option set's."""
        zeros = families._zeros
        monkeypatch.setattr(families, "_zeros",
                            lambda qubits: [*zeros(qubits), [x(q) for q in qubits]])
        argv = ["run", "--family", "wojter", "--n", "5", "--partition", "3,2",
                "--style", "ancilla-relphase", "--oracle", "10110", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: partial uncompute: the passes keep other gates for key '11111'\n"
        )

    def test_bad_mask_refused_before_any_circuit(self, monkeypatch):
        """Plan.fill refuses a mask that is not n bits, as OracleSpec does,
        before it fills the template."""
        plan = families.plan(FamilyRequest("grover", OracleSpec(3, "000")))
        filled = []
        monkeypatch.setattr(CircuitTemplate, "fill", lambda self, *args: filled.append(args))
        for mask in ("10", "1000", "1a0"):
            with pytest.raises(BadMask, match=f"{mask!r} is not a pattern of 3 bits"):
                plan.fill(mask)
        assert filled == []

    def test_no_mask_gives_no_circuit(self, monkeypatch):
        """Planning fills no circuit: only Plan.fill makes one."""
        filled = []
        fill = CircuitTemplate.fill
        monkeypatch.setattr(CircuitTemplate, "fill",
                            lambda self, *args: filled.append(args) or fill(self, *args))
        families.plan(FamilyRequest("grover", OracleSpec(3, "000")))
        assert filled == []
