"""Builders for the experiment circuit families.

A `FamilyRequest` is one option set of a family; it refuses, when made,
an option set its family cannot build or an option its circuit would not
read.  `plan(request)` is the one way from a request to its circuits: it
makes the request's template once, and `Plan.fill(mask)` makes each
mask's circuit; `build(request)` is the fill for the request's own mask.
The circuits of one option set differ only in the X conjugation of a
block's zero bits, a few polarities and the `mask` metadata, so each
family describes its circuit once, as a `CircuitTemplate` whose
mask-independent fragments (H-wall, diffusers, fold trees and their
uncompute, exact cores, measurements) are made and checked once per plan;
each mask fills only the holes that hold its conjugation and its
polarized gates.  The simulators walk the template, the trajectory
simulator its compiled form (synth.compile_template).

Every family but wielomianer is one skeleton, `_search_template`.  The
block families interleave self-contained full-mask oracle calls with
block-local diffusers in the order `_SCHEDULES` gives.  With the
partial-uncompute option, peephole cancellation merges adjacent
uncompute/recompute pairs across support-disjoint diffusers, and
trailing-uncompute elimination drops the final fold uncompute that no
measurement can observe, giving the compact layouts the gate-count
targets refer to.  What the two passes keep does not depend on the mask,
so `_block_family` runs them once per plan, on the template
(CircuitTemplate.tidied); each X of a block's conjugation is its own
hole, as the passes may keep some qubits' X and not others'.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from . import synth
from .circuit import (
    Circuit,
    CircuitTemplate,
    Instruction,
    cx,
    cz,
    h,
    measure,
    peephole_cancel,  # noqa: F401 - perfbench's tests read it
    x,
)
from .errors import (
    BadDiffuserSize,
    BadWidth,
    UnsupportedPartition,
    ValidationError,
)
from .synth import OracleSpec

FAMILIES = (
    "grover",
    "partial",
    "wojter",
    "wojter-aa",
    "drzewker",
    "partial-drzewker",
    "wielomianer",
)

UNCOMPUTE_MODES = ("full", "partial", "measurement-assisted")

# oracle calls and block diffusers (g2 on block 2, g3 on block 1), in order:
# drzewker has one sub-iteration group fewer than wojter, partial-drzewker
# stops after its first two diffusers, and wojter-aa closes with a Grover round
_WOJTER = ["oracle", "g2", "oracle", "g2", "oracle", "g3", "oracle", "g2"]
_SCHEDULES = {
    "wojter": _WOJTER,
    "wojter-aa": _WOJTER,
    "drzewker": ["oracle", "g2", "oracle", "g3", "oracle", "g2"],
    "partial-drzewker": ["oracle", "g2", "oracle", "g3"],
}
BLOCK_FAMILIES = tuple(_SCHEDULES)  # the families that read a partition


@dataclass(frozen=True)
class Partition:
    """Ordered split of the search register into diffuser blocks."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise UnsupportedPartition(f"partition: bad parts {list(self.parts)}")

    @property
    def n(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class FamilyRequest:
    """One option set of a family; plan(request).fill makes its circuit per mask.

    A request constructs only if its family can build it and reads every
    option it sets: an option the family's circuit would not read must keep
    its default, so that no record of the request names an option that had
    no effect.  Each refusal is a ValidationError whose message starts with
    the field it concerns.
    """

    family: str
    oracle: OracleSpec
    iterations: int = 1
    partition: Partition | None = None
    diffuser_size: int | None = None
    uncompute: str = "partial"
    fused: bool = False

    def __post_init__(self):
        fam, n, part = self.family, self.oracle.n, self.partition
        blocks = ", ".join(BLOCK_FAMILIES)
        if fam not in FAMILIES:
            raise ValidationError(f"family: unknown family {fam!r}")
        if n < 1:
            raise BadWidth(f"n: width {n} must be >= 1")
        if fam == "wielomianer" and n != 4:
            raise BadWidth("n: the wielomianer circuit is defined for n=4")
        if self.uncompute not in UNCOMPUTE_MODES:
            raise ValidationError(f"uncompute: unknown mode {self.uncompute!r}")
        if self.iterations != 1 and fam != "grover":
            raise ValidationError(
                f"iterations: only grover repeats its round, got {self.iterations} for {fam}"
            )
        if self.iterations < 1:
            raise ValidationError("iterations: must be >= 1")
        if self.diffuser_size is not None and fam != "partial":
            raise ValidationError(f"diffuser_size: only partial takes a diffuser size, not {fam}")
        if self.diffuser_size is not None and not 1 <= self.diffuser_size <= n:
            raise BadDiffuserSize(f"diffuser_size: {self.diffuser_size} outside 1..{n}")
        if self.fused and fam != "wojter":
            raise ValidationError(f"fused: only wojter has a fused form, not {fam}")
        if self.uncompute != "partial" and fam not in BLOCK_FAMILIES:
            raise ValidationError(f"uncompute: only {blocks} take an uncompute mode, not {fam}")
        if self.uncompute != "partial" and self.fused:
            raise ValidationError("uncompute: the fused form of wojter has no uncompute mode")
        if fam not in BLOCK_FAMILIES:
            if part is not None:
                raise UnsupportedPartition(f"partition: only {blocks} take a partition, not {fam}")
            return
        if part is None:
            raise UnsupportedPartition(f"partition: {fam} needs a partition")
        if part.n != n:
            raise UnsupportedPartition(f"partition: parts {list(part.parts)} do not sum to n={n}")
        if len(part.parts) > 2:
            raise UnsupportedPartition("partition: only one or two blocks are supported")
        if len(part.parts) == 2 and part.parts[1] not in (1, 2):
            raise UnsupportedPartition(
                "partition: trailing block must have 1 or 2 qubits (exact block search)"
            )
        if len(part.parts) == 1 and self.uncompute != "partial":
            raise ValidationError(
                f"uncompute: with the one-part partition {list(part.parts)} {fam} is grover, "
                f"which takes no uncompute mode"
            )
        if self.uncompute == "measurement-assisted" and self.oracle.style == "plain-mcz":
            raise ValidationError(
                "uncompute: plain-mcz has no ancillas to measure, so measurement-assisted "
                "builds what full builds"
            )

    @property
    def oracle_calls(self) -> int:
        """The oracle calls in each of the request's circuits, known before
        any build; plan writes it as their oracle_calls metadata."""
        if self.family == "grover":
            return self.iterations
        if self.family not in BLOCK_FAMILIES:
            return 1
        aa = self.family == "wojter-aa"  # its closing Grover round calls once more
        if len(self.partition.parts) == 1:  # Grover
            return 1 + aa
        return _SCHEDULES[self.family].count("oracle") + aa  # fused wojter too: 4


def build(request: FamilyRequest) -> Circuit:
    """The circuit for request's own mask: plan(request).fill of that mask."""
    return plan(request).fill(request.oracle.mask)


class Plan(NamedTuple):
    """One option set's circuits: the template, tidied when the options ask
    for it, and every metadata entry but the mask."""

    template: CircuitTemplate
    metadata: dict

    def fill(self, mask: str) -> Circuit:
        """The circuit for mask, with its own copy of the metadata, its lists
        included, and its mask; BadMask refuses a mask that is not a
        pattern of the plan's n bits."""
        OracleSpec(self.metadata["n"], mask)
        metadata = {k: list(v) if isinstance(v, list) else v for k, v in self.metadata.items()}
        return self.template.fill(mask, {**metadata, "mask": mask})


def plan(request: FamilyRequest) -> Plan:
    """The request's plan: each mask-independent fragment is made and checked
    once, against the request's register sizes, and with partial uncompute
    the template is tidied once (see _block_family).  Plan.fill makes a
    mask's circuit."""
    fam, n, style = request.family, request.oracle.n, request.oracle.style
    if fam == "grover":
        made = _grover(n, style, request.iterations)
    elif fam == "partial":
        made = _partial(n, style, request.diffuser_size)
    elif fam == "wielomianer":
        made = _wielomianer()
    elif fam == "wojter" and request.fused:
        made = _wojter_fused(n, style, request.partition)
    else:
        made = _block_family(fam, n, style, request.partition, request.uncompute)
    made.metadata["oracle_calls"] = request.oracle_calls
    return made


# template holes: the gates that follow the mask ------------------------------

def _zeros(qubits) -> list[Callable[[str], tuple]]:
    """X on each of the qubits whose mask bit is 0: one hole per qubit, so
    that the partial-uncompute passes may keep some qubits' X and not
    others'."""
    return [_zero(q) for q in qubits]


def _zero(q: int) -> Callable[[str], tuple]:
    gate = (x(q),)
    return lambda mask: gate if mask[q] == "0" else ()


def _marked_cz(held, qubits) -> Callable[[str], list]:
    """cz on the held wires, marked at 1, and on the search qubits, each
    marked at its mask bit."""
    wires, ones = tuple(held) + tuple(qubits), (1,) * len(held)
    return lambda mask: [cz(*wires, polarity=ones + tuple(int(mask[q]) for q in qubits))]


def _marked(qubits: tuple[int, ...], core: list) -> list:
    """Template parts for -1 on the mask's bits of the qubits, from core, the
    all-ones form: a lone symbolic cz takes the mask as its polarity, and any
    other core gets X on the mask's zero bits on each side, as
    synth.mcz_fragment conjugates it."""
    if len(core) == 1 and core[0].gate.name == "cz":
        return [_marked_cz((), qubits)]
    conj = _zeros(qubits)
    return [*conj, core, *conj]


def _search_template(
    family: str, n: int, n_anc: int, n_clbits: int, body: list, **metadata
) -> Plan:
    """The H-wall on search qubits 0..n-1, the body's parts, then search
    qubit q measured into bit q; ancillas follow the search qubits and
    auxiliary bits the data bits, and the metadata (JSON values) names the
    family, n, the data bits and the diffuser phase."""
    parts = [[h(q) for q in range(n)], *body, [measure(q, q) for q in range(n)]]
    return Plan(
        CircuitTemplate(n + n_anc, n_clbits, parts),
        dict(family=family, n=n, data_clbits=list(range(n)), diffuser_phase="-1", **metadata),
    )


def _grover_round(
    n: int, style: str, k: int, ancillas: tuple[int, ...], clbits: tuple[int, ...] = ()
) -> list:
    """One full-register oracle call, then the diffuser on wires 0..k-1; it
    serves grover, partial and wojter-aa's close, and alone picks the diffuser method."""
    method = "plain" if style == "plain-mcz" else "relphase-maslov"
    ones = synth.oracle(OracleSpec(n, "1" * n, style), ancillas=ancillas, clbits=clbits)
    diffuser = synth.diffuser(k, tuple(range(k)), method=method, ancillas=ancillas)
    return _marked(tuple(range(n)), ones) + [diffuser]


def _oracle_wiring(n: int, style: str) -> tuple[int, int]:
    """(ancilla count, auxiliary classical bit count) one oracle call needs."""
    n_anc = synth.oracle_ancillas_needed(n, style)
    n_aux = n_anc if style == "measurement-assisted" else 0
    return n_anc, n_aux


def _grover(n: int, style: str, iterations: int) -> Plan:
    n_anc, aux = _oracle_wiring(n, style)
    ancillas = tuple(range(n, n + n_anc))
    body = []
    for it in range(iterations):
        body += _grover_round(n, style, n, ancillas, tuple(range(n + it * aux, n + (it + 1) * aux)))
    return _search_template(
        "grover", n, n_anc, n + aux * iterations, body,
        oracle_style=style,
        iterations=iterations,
        ancillas=list(ancillas),
    )


def _partial(n: int, style: str, diffuser_size: int | None) -> Plan:
    k = diffuser_size if diffuser_size is not None else min(3, n)
    n_anc, aux = _oracle_wiring(n, style)
    body = _grover_round(n, style, k, tuple(range(n, n + n_anc)), tuple(range(n, n + aux)))
    return _search_template(
        "partial", n, n_anc, n + aux, body,
        oracle_style=style,
        diffuser_size=k,
        diffuser_qubits=list(range(k)),
    )


# block families -------------------------------------------------------------

def _blocks(partition: Partition) -> tuple[list[int], list[int]]:
    """The search qubits of block 1 and of block 2; one part leaves block 2 empty."""
    k1 = partition.parts[0]
    return list(range(k1)), list(range(k1, partition.n))


def _block_oracle(style: str, block1: list[int], block2: list[int],
                  ancillas: tuple[int, ...], clbits: tuple[int, ...] | None) -> list:
    """Template parts of one self-contained full-mask oracle call.

    Folds block 1 (X-conjugated to the mask) into an AND wire, applies the
    polarized multi-controlled Z on that wire plus block 2, and uncomputes
    the fold (measurement-assisted when clbits are given).  With the
    plain-mcz style the call is one symbolic polarized multi-controlled Z
    over the whole register instead.
    """
    if style == "plain-mcz":
        return [_marked_cz((), block1 + block2)]
    fold, live, folds = synth.and_fold_tree(
        tuple(block1), ancillas, kind="clean" if clbits is not None else "maslov"
    )
    conj = _zeros(block1)
    uncompute = synth.uncompute_folds(fold, folds, clbits)
    return [*conj, fold, _marked_cz(live, block2), uncompute, *conj]


def _block_family(
    family: str, n: int, style: str, partition: Partition, uncompute: str
) -> Plan:
    """Block search, in which sub-iterations on block 2 build an oracle for
    block 1: oracle calls and block diffusers in the order
    _SCHEDULES[family] gives; wojter-aa closes with one full-register Grover
    round."""
    block1, block2 = _blocks(partition)
    aa = family == "wojter-aa"
    if not block2:  # degenerate single block: Grover, plus wojter-aa's closing round
        plan = _grover(n, style, 2 if aa else 1)
        plan.metadata.update(family=family, partition=list(partition.parts), degenerate=True)
        return plan

    schedule = _SCHEDULES[family]
    plain = style == "plain-mcz"
    n_folds = 0 if plain else len(synth.fold_plan(len(block1)))
    n_anc = max(n_folds, synth.oracle_ancillas_needed(n, style) if aa else 0)
    ancillas = tuple(range(n, n + n_anc))
    measured = uncompute == "measurement-assisted"
    aux = n_folds if measured else 0
    n_clbits = n + aux * schedule.count("oracle")

    body = []
    call_no = 0
    for step in schedule:
        if step == "oracle":
            start = n + call_no * aux
            clbits = tuple(range(start, start + aux)) if measured else None
            body += _block_oracle(style, block1, block2, ancillas, clbits)
            call_no += 1
        else:
            block = tuple(block2 if step == "g2" else block1)
            body.append(synth.diffuser(len(block), block))
    if aa:
        body += _grover_round(n, "plain-mcz" if plain else "ancilla-relphase", n, ancillas)

    plan = _search_template(
        family, n, n_anc, n_clbits, body,
        partition=list(partition.parts),
        uncompute=uncompute,
        schedule=list(schedule),
        ancillas=list(ancillas),
        oracle_tree="fold3-left-deep",
    )
    if uncompute != "partial":
        return plan
    # uncompute/recompute pairs across disjoint diffusers cancel, and
    # uncompute that no measurement can see falls away: probed with the
    # all-zeros mask, which conjugates every block-1 qubit, and checked with
    # the all-ones mask, which conjugates none
    return plan._replace(template=plan.template.tidied("0" * n, "1" * n))


def _wojter_fused(n: int, style: str, partition: Partition) -> Plan:
    """Wojter's exact algebraic collapse: its three-call sub-iteration body
    equals one polarized reflection on block 1, for the same output
    distribution with far fewer two-qubit gates and no query structure."""
    block1, block2 = _blocks(partition)
    if not block2:
        plan = _grover(n, style, 1)
        plan.metadata.update(family="wojter", fused=True)
        return plan
    n_anc = len(synth.fold_plan(len(block1)))
    ancillas = tuple(range(n, n + n_anc))
    # block-1 phase oracle (the collapsed sub-iteration body), then diffuser
    body = _marked(tuple(block1), synth.mcz_fragment(tuple(block1), method="exact-recursive"))
    body.append(synth.diffuser(len(block1), tuple(block1)))
    # final block-2 grover step needs the mask AND of block 1 on an ancilla
    fold, live, folds = synth.and_fold_tree(tuple(block1), ancillas)
    if folds:
        conj = _zeros(block1)
        body += [*conj, fold, *conj, _marked_cz(live, block2)]
    else:  # the one block-1 wire is marked at its own mask bit
        body.append(_marked_cz((), block1 + block2))
    body.append(synth.diffuser(len(block2), tuple(block2)))
    return _search_template(
        "wojter", n, n_anc, n, body,
        partition=list(partition.parts),
        fused=True,
        ancillas=list(ancillas),
        oracle_tree="fold3-left-deep",
    )


def _under(condition: tuple[int, int], gates) -> list[Instruction]:
    return [Instruction(g.gate if isinstance(g, Instruction) else g, condition) for g in gates]


def _wielomianer() -> Plan:
    """The machine-generated 4-qubit circuit with one mid-circuit measurement.

    Wire order (q1, q2, a, q3, q4, extra) = indices 0..5; the four search
    qubits are 0, 1, 3, 4 and land in classical bits 0..3; the extra wire
    is measured mid-circuit into bit 4 and the remaining gates fire on
    outcome 0 (open classical controls).
    """
    q1, q2, a, q3, q4, extra = range(6)
    cond = (4, 0)

    def pol34(m):
        return (1, int(m[2]), int(m[3]))

    def call(m):
        return [cx(q1, q2, a, polarity=(int(m[0]), int(m[1]))), cz(a, q3, q4, polarity=pol34(m))]

    parts = [
        [h(q) for q in (q1, q2, q3, q4)],
        call,
        synth.diffuser(2, (q3, q4)),
        lambda m: [cx(a, q3, q4, extra, polarity=pol34(m))],
        [measure(extra, 4)],
        _under(cond, synth.diffuser(2, (q1, q2))),
        lambda m: _under(cond, call(m)),
        _under(cond, synth.diffuser(2, (q3, q4))),
        [measure(q, c) for q, c in ((q1, 0), (q2, 1), (q3, 2), (q4, 3))],
    ]
    return Plan(
        CircuitTemplate(6, 5, parts),
        dict(
            family="wielomianer",
            n=4,
            data_clbits=[0, 1, 2, 3],
            aux_clbits=[4],
            wires="q1,q2,a,q3,q4,extra",
            diffuser_phase="-1",
        ),
    )
