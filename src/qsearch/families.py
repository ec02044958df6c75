"""Builders for the experiment circuit families.

Every family but wielomianer is one skeleton, `_search_circuit`: an H-wall
on search qubits 0..n-1, a family body, then search qubit q measured into
classical bit q, with family, n, mask, data bits and diffuser phase in the
metadata (values stay JSON-representable).  Ancillas follow the search
qubits, auxiliary classical bits the data bits.  `_grover_round`, one
full-register oracle call and then a diffuser, serves grover, partial and
the wojter-aa closing round, and alone picks the diffuser method.

The block families interleave full-mask oracle calls with block-local
diffusers in the order `_SCHEDULES` gives.  Each oracle call is emitted
self-contained (ancilla compute, polarized multi-controlled Z on ancilla +
trailing block, ancilla uncompute); with the partial-uncompute option,
peephole cancellation merges adjacent uncompute/recompute pairs across
support-disjoint diffusers, and trailing-uncompute elimination drops the
final fold uncompute that no measurement can observe, yielding the compact
interleaved layouts the gate-count targets refer to.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import synth
from .circuit import (
    Circuit,
    CircuitBuilder,
    cx,
    cz,
    peephole_cancel,
    strip_trailing_uncompute,
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


@dataclass(frozen=True)
class Partition:
    """Ordered split of the search register into diffuser blocks."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise UnsupportedPartition(f"bad partition {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)


@dataclass
class FamilyRequest:
    family: str
    oracle: OracleSpec
    iterations: int = 1
    partition: Partition | None = None
    diffuser_size: int | None = None
    uncompute: str = "partial"
    fused: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if self.uncompute not in UNCOMPUTE_MODES:
            raise ValidationError(f"unknown uncompute mode {self.uncompute!r}")


def build(request: FamilyRequest) -> Circuit:
    fam, spec = request.family, request.oracle
    if fam == "grover":
        return build_grover(spec, request.iterations)
    if fam == "partial":
        return build_partial(spec, request.diffuser_size)
    if fam == "wielomianer":
        return build_wielomianer_p43(spec)
    if fam == "wojter" and request.fused:
        return _build_wojter_fused(spec, request.partition)
    return _build_block_family(fam, spec, request.partition, request.uncompute)


def _search_circuit(
    family: str, spec: OracleSpec, n_anc: int, n_clbits: int, body: list, **metadata
) -> Circuit:
    """The H-wall, the body, then search wire q measured into bit q."""
    n = spec.n
    builder = CircuitBuilder(n + n_anc, n_clbits)
    for q in range(n):
        builder.h(q)
    builder.extend(body)
    for q in range(n):
        builder.measure(q, q)
    builder.metadata(
        family=family,
        n=n,
        mask=spec.mask,
        data_clbits=list(range(n)),
        diffuser_phase="-1",
        **metadata,
    )
    return builder.build()


def _grover_round(
    spec: OracleSpec, k: int, ancillas: tuple[int, ...], clbits: tuple[int, ...] = ()
) -> list:
    """One full-register oracle call, then the diffuser on wires 0..k-1."""
    method = "plain" if spec.style == "plain-mcz" else "relphase-maslov"
    return synth.oracle(spec, ancillas=ancillas, clbits=clbits) + synth.diffuser(
        k, tuple(range(k)), method=method, ancillas=ancillas
    )


def _oracle_wiring(spec: OracleSpec) -> tuple[int, int]:
    """(ancilla count, auxiliary classical bit count) one oracle call needs."""
    n_anc = synth.oracle_ancillas_needed(spec.n, spec.style)
    n_aux = n_anc if spec.style == "measurement-assisted" else 0
    return n_anc, n_aux


def build_grover(spec: OracleSpec, iterations: int = 1) -> Circuit:
    """H-wall, then (oracle; full diffuser) repeated, then measurement."""
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")
    n = spec.n
    n_anc, aux = _oracle_wiring(spec)
    ancillas = tuple(range(n, n + n_anc))
    body = []
    for it in range(iterations):
        body += _grover_round(spec, n, ancillas, tuple(range(n + it * aux, n + (it + 1) * aux)))
    return _search_circuit(
        "grover", spec, n_anc, n + aux * iterations, body,
        oracle_style=spec.style,
        oracle_calls=iterations,
        iterations=iterations,
        ancillas=list(ancillas),
    )


def build_partial(spec: OracleSpec, diffuser_size: int | None) -> Circuit:
    """Single oracle call followed by a diffuser on the first k of the n qubits."""
    n = spec.n
    k = diffuser_size if diffuser_size is not None else min(3, n)
    if not 1 <= k <= n:
        raise BadDiffuserSize(f"diffuser size {k} outside 1..{n}")
    n_anc, aux = _oracle_wiring(spec)
    body = _grover_round(spec, k, tuple(range(n, n + n_anc)), tuple(range(n, n + aux)))
    return _search_circuit(
        "partial", spec, n_anc, n + aux, body,
        oracle_style=spec.style,
        diffuser_size=k,
        diffuser_qubits=list(range(k)),
        oracle_calls=1,
    )


# block families -------------------------------------------------------------

def _split_blocks(
    family: str, partition: Partition | None, n: int
) -> tuple[list[int], list[int]]:
    if partition is None:
        raise UnsupportedPartition(f"{family} needs a partition")
    if partition.n != n:
        raise UnsupportedPartition(
            f"partition {list(partition.parts)} does not sum to n={n}"
        )
    if len(partition.parts) == 1:
        return list(range(n)), []
    if len(partition.parts) != 2:
        raise UnsupportedPartition(
            "only two-block partitions (and the degenerate single block) are supported"
        )
    k1, k2 = partition.parts
    if k2 not in (1, 2):
        raise UnsupportedPartition(
            "trailing block must have 1 or 2 qubits (exact block search)"
        )
    return list(range(k1)), list(range(k1, k1 + k2))


def _block_oracle(spec: OracleSpec, block1: list[int], block2: list[int],
                  ancillas: tuple[int, ...], clbits: tuple[int, ...] | None) -> list:
    """One self-contained full-mask oracle call.

    Folds block 1 (X-conjugated to the mask) into an AND wire, applies the
    polarized multi-controlled Z on that wire plus block 2, and uncomputes
    the fold (measurement-assisted when clbits are given).  With the
    plain-mcz style the call is one symbolic polarized multi-controlled Z
    over the whole register instead.
    """
    mask = spec.mask
    if spec.style == "plain-mcz":
        qubits = tuple(block1 + block2)
        return [cz(*qubits, polarity=tuple(int(mask[q]) for q in qubits))]
    conj = [x(q) for q in block1 if mask[q] == "0"]
    fold, live, folds = synth.and_fold_tree(
        tuple(block1), ancillas, kind="clean" if clbits is not None else "maslov"
    )
    piece = cz(*live, *block2, polarity=(1,) + tuple(int(mask[q]) for q in block2))
    return conj + fold + [piece] + synth.uncompute_folds(fold, folds, clbits) + conj


_WOJTER = ["oracle", "g2", "oracle", "g2", "oracle", "g3", "oracle", "g2"]
_SCHEDULES = {
    "wojter": _WOJTER,
    "wojter-aa": _WOJTER,
    "drzewker": ["oracle", "g2", "oracle", "g3", "oracle", "g2"],
    "partial-drzewker": ["oracle", "g2", "oracle", "g3"],
}


def _build_block_family(
    family: str, spec: OracleSpec, partition: Partition | None, uncompute: str
) -> Circuit:
    """Oracle calls and block diffusers in the order _SCHEDULES[family] gives;
    wojter-aa closes with one full-register Grover round."""
    n = spec.n
    block1, block2 = _split_blocks(family, partition, n)
    aa = family == "wojter-aa"
    if not block2:  # degenerate single block: Grover, plus wojter-aa's closing round
        circ = build_grover(
            OracleSpec(n, spec.mask, "ancilla-relphase" if n >= 4 else "plain-mcz"),
            2 if aa else 1,
        )
        return circ.with_metadata(
            family=family, partition=list(partition.parts), degenerate=True
        )

    schedule = _SCHEDULES[family]
    plain = spec.style == "plain-mcz"
    n_folds = 0 if plain else len(synth.fold_plan(len(block1)))
    n_anc = max(n_folds, synth.oracle_ancillas_needed(n, spec.style) if aa else 0)
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
            body += _block_oracle(spec, block1, block2, ancillas, clbits)
            call_no += 1
        else:
            block = tuple(block2 if step == "g2" else block1)
            body += synth.diffuser(len(block), block)
    if aa:
        aa_style = "plain-mcz" if plain else "ancilla-relphase"
        body += _grover_round(OracleSpec(n, spec.mask, aa_style), n, ancillas)

    circ = _search_circuit(
        family, spec, n_anc, n_clbits, body,
        partition=list(partition.parts),
        uncompute=uncompute,
        oracle_calls=call_no + aa,
        schedule=list(schedule),
        ancillas=list(ancillas),
        oracle_tree="fold3-left-deep",
    )
    if uncompute == "partial":
        # uncompute/recompute pairs across disjoint diffusers cancel, and
        # uncompute that no measurement can see falls away
        circ = strip_trailing_uncompute(peephole_cancel(circ))
    return circ


def build_wojter(
    spec: OracleSpec, partition: Partition | None, uncompute: str = "partial", fused: bool = False
) -> Circuit:
    """Block-search circuit: block-2 sub-iterations build a block-1 oracle.

    The default layout interleaves four oracle calls with block diffusers;
    with fused=True the exact algebraic collapse is emitted instead (the
    three-call sub-iteration body equals a single polarized reflection on
    block 1), trading the query structure for a much lower 2-qubit count.
    """
    if fused:
        return _build_wojter_fused(spec, partition)
    return _build_block_family("wojter", spec, partition, uncompute)


def _build_wojter_fused(spec: OracleSpec, partition: Partition | None) -> Circuit:
    n = spec.n
    block1, block2 = _split_blocks("wojter", partition, n)
    if not block2:
        return build_grover(spec, 1).with_metadata(family="wojter", fused=True)
    mask = spec.mask
    n_anc = len(synth.fold_plan(len(block1)))
    ancillas = tuple(range(n, n + n_anc))
    # block-1 phase oracle (the collapsed sub-iteration body), then diffuser
    pol1 = tuple(int(mask[q]) for q in block1)
    body = synth.mcz_fragment(tuple(block1), method="exact-recursive", polarity=pol1)
    body += synth.diffuser(len(block1), tuple(block1))
    # final block-2 grover step needs the mask AND of block 1 on an ancilla
    fold, live, folds = synth.and_fold_tree(tuple(block1), ancillas)
    if folds:
        conj = [x(q) for q in block1 if mask[q] == "0"]
        body += conj + fold + conj
        pol = (1,)
    else:
        pol = (int(mask[block1[0]]),)
    body.append(cz(*live, *block2, polarity=pol + tuple(int(mask[q]) for q in block2)))
    body += synth.diffuser(len(block2), tuple(block2))
    return _search_circuit(
        "wojter", spec, n_anc, n, body,
        partition=list(partition.parts),
        fused=True,
        oracle_calls=4,
        ancillas=list(ancillas),
        oracle_tree="fold3-left-deep",
    )


def build_wojter_aa(
    spec: OracleSpec,
    partition: Partition | None,
    uncompute: str = "partial",
) -> Circuit:
    """Wojter followed by one full oracle + full-register diffuser round."""
    return _build_block_family("wojter-aa", spec, partition, uncompute)


def build_drzewker(
    spec: OracleSpec, partition: Partition | None, uncompute: str = "partial"
) -> Circuit:
    """Same block structure as wojter with one sub-iteration group fewer."""
    return _build_block_family("drzewker", spec, partition, uncompute)


def build_partial_drzewker(
    spec: OracleSpec,
    partition: Partition | None,
    uncompute: str = "partial",
) -> Circuit:
    """Drzewker truncated after its first two diffusers; ancilla uncomputed."""
    return _build_block_family("partial-drzewker", spec, partition, uncompute)


def build_wielomianer_p43(spec: OracleSpec) -> Circuit:
    """The machine-generated 4-qubit circuit with one mid-circuit measurement.

    Wire order (q1, q2, a, q3, q4, extra) = indices 0..5; the four search
    qubits are 0, 1, 3, 4 and land in classical bits 0..3; the extra wire
    is measured mid-circuit into bit 4 and the remaining gates fire on
    outcome 0 (open classical controls).
    """
    if spec.n != 4:
        raise BadWidth("the wielomianer circuit is defined for n=4")
    m = spec.mask
    q1, q2, a, q3, q4, extra = range(6)
    builder = CircuitBuilder(6, 5)
    for q in (q1, q2, q3, q4):
        builder.h(q)
    pol12 = (int(m[0]), int(m[1]))
    pol34 = (1, int(m[2]), int(m[3]))
    builder.add(cx(q1, q2, a, polarity=pol12))
    builder.add(cz(a, q3, q4, polarity=pol34))
    builder.extend(synth.diffuser(2, (q3, q4)))
    builder.add(cx(a, q3, q4, extra, polarity=pol34))
    builder.measure(extra, 4)
    cond = (4, 0)
    builder.extend(synth.diffuser(2, (q1, q2)), condition=cond)
    builder.add(cx(q1, q2, a, polarity=pol12), condition=cond)
    builder.add(cz(a, q3, q4, polarity=pol34), condition=cond)
    builder.extend(synth.diffuser(2, (q3, q4)), condition=cond)
    for q, c in ((q1, 0), (q2, 1), (q3, 2), (q4, 3)):
        builder.measure(q, c)
    builder.metadata(
        family="wielomianer",
        n=4,
        mask=m,
        oracle_calls=1,
        data_clbits=[0, 1, 2, 3],
        aux_clbits=[4],
        wires="q1,q2,a,q3,q4,extra",
        diffuser_phase="-1",
    )
    return builder.build()
