"""Builders for the experiment circuit families.

Wire layout: search qubits 0..n-1 (measured into classical bits 0..n-1 at
the end), ancillas after them, auxiliary classical bits after the data
bits.  Every builder records family, mask, options and the oracle-call
count in the circuit metadata; metadata values stay JSON-representable.

The block families interleave full-mask oracle calls with block-local
diffusers.  Each oracle call is emitted self-contained (ancilla compute,
polarized multi-controlled Z on ancilla + trailing block, ancilla
uncompute); with the partial-uncompute option, peephole cancellation
merges adjacent uncompute/recompute pairs across support-disjoint
diffusers, and trailing-uncompute elimination drops the final fold
uncompute that no measurement can observe, yielding the compact
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
    schedule: list[str] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if self.uncompute not in UNCOMPUTE_MODES:
            raise ValidationError(f"unknown uncompute mode {self.uncompute!r}")


def build(request: FamilyRequest) -> Circuit:
    fam = request.family
    if fam == "grover":
        return build_grover(request.oracle, request.iterations)
    if fam == "partial":
        return build_partial(request.oracle, request.diffuser_size)
    if fam == "wojter":
        return build_wojter(
            request.oracle,
            request.partition,
            uncompute=request.uncompute,
            fused=request.fused,
            schedule=request.schedule,
        )
    if fam == "wojter-aa":
        return build_wojter_aa(request.oracle, request.partition, uncompute=request.uncompute)
    if fam == "drzewker":
        return build_drzewker(
            request.oracle, request.partition, uncompute=request.uncompute,
            schedule=request.schedule,
        )
    if fam == "partial-drzewker":
        return build_partial_drzewker(
            request.oracle, request.partition, uncompute=request.uncompute
        )
    return build_wielomianer_p43(request.oracle)


def _measure_all(builder: CircuitBuilder, n: int) -> None:
    for q in range(n):
        builder.measure(q, q)


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
    n_anc, aux_per_iter = _oracle_wiring(spec)
    ancillas = tuple(range(n, n + n_anc))
    n_clbits = n + aux_per_iter * iterations
    builder = CircuitBuilder(n + n_anc, n_clbits)
    for q in range(n):
        builder.h(q)
    diffuser_method = "plain" if spec.style == "plain-mcz" else "relphase-maslov"
    for it in range(iterations):
        clbits = tuple(n + it * aux_per_iter + j for j in range(aux_per_iter))
        builder.extend(synth.oracle(spec, ancillas=ancillas, clbits=clbits))
        builder.extend(
            synth.diffuser(n, tuple(range(n)), method=diffuser_method, ancillas=ancillas)
        )
    _measure_all(builder, n)
    builder.metadata(
        family="grover",
        n=n,
        mask=spec.mask,
        oracle_style=spec.style,
        oracle_calls=iterations,
        iterations=iterations,
        data_clbits=list(range(n)),
        ancillas=list(ancillas),
        diffuser_phase="-1",
    )
    return builder.build()


def build_partial(
    spec: OracleSpec,
    diffuser_size: int | None,
    diffuser_qubits: tuple[int, ...] | None = None,
) -> Circuit:
    """Single oracle call followed by a diffuser on k of the n qubits."""
    n = spec.n
    k = diffuser_size if diffuser_size is not None else min(3, n)
    if not 1 <= k <= n:
        raise BadDiffuserSize(f"diffuser size {k} outside 1..{n}")
    targets = tuple(diffuser_qubits) if diffuser_qubits is not None else tuple(range(k))
    if len(targets) != k or any(not 0 <= q < n for q in targets):
        raise BadDiffuserSize("diffuser qubits must be k distinct search wires")
    n_anc, n_aux = _oracle_wiring(spec)
    ancillas = tuple(range(n, n + n_anc))
    builder = CircuitBuilder(n + n_anc, n + n_aux)
    for q in range(n):
        builder.h(q)
    builder.extend(
        synth.oracle(spec, ancillas=ancillas, clbits=tuple(range(n, n + n_aux)))
    )
    diffuser_method = "plain" if spec.style == "plain-mcz" else "relphase-maslov"
    builder.extend(synth.diffuser(k, targets, method=diffuser_method, ancillas=ancillas))
    _measure_all(builder, n)
    builder.metadata(
        family="partial",
        n=n,
        mask=spec.mask,
        oracle_style=spec.style,
        diffuser_size=k,
        diffuser_qubits=list(targets),
        oracle_calls=1,
        data_clbits=list(range(n)),
        diffuser_phase="-1",
    )
    return builder.build()


# block families -------------------------------------------------------------

def _split_blocks(partition: Partition, n: int) -> tuple[list[int], list[int]]:
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


_SCHEDULES = {
    "wojter": ["oracle", "g2", "oracle", "g2", "oracle", "g3", "oracle", "g2"],
    "drzewker": ["oracle", "g2", "oracle", "g3", "oracle", "g2"],
    "partial-drzewker": ["oracle", "g2", "oracle", "g3"],
}


def _build_block_family(
    family: str,
    spec: OracleSpec,
    partition: Partition | None,
    uncompute: str,
    schedule: list[str] | None,
    extra_aa_round: bool = False,
) -> Circuit:
    n = spec.n
    if partition is None:
        raise UnsupportedPartition(f"{family} needs a partition")
    block1, block2 = _split_blocks(partition, n)
    if not block2:  # degenerate single block: one Grover iteration
        iterations = 2 if extra_aa_round else 1
        circ = build_grover(
            OracleSpec(n, spec.mask, "ancilla-relphase" if n >= 4 else "plain-mcz"),
            iterations,
        )
        return circ.with_metadata(
            family=family, partition=list(partition.parts), degenerate=True
        )

    schedule = list(schedule) if schedule is not None else list(_SCHEDULES[family])
    if any(step not in ("oracle", "g2", "g3") for step in schedule):
        raise ValidationError("schedule steps must be oracle, g2 or g3")
    n_calls = schedule.count("oracle") + (1 if extra_aa_round else 0)

    plain = spec.style == "plain-mcz"
    n_folds = 0 if plain else len(synth.fold_plan(len(block1)))
    n_anc = n_folds
    if extra_aa_round and not plain:
        n_anc = max(n_anc, synth.oracle_ancillas_needed(n, "ancilla-relphase"))
    ancillas = tuple(range(n, n + n_anc))
    measured = uncompute == "measurement-assisted"
    aux_per_call = n_folds if measured else 0
    n_clbits = n + aux_per_call * schedule.count("oracle")

    builder = CircuitBuilder(n + n_anc, n_clbits)
    for q in range(n):
        builder.h(q)
    call_no = 0
    for step in schedule:
        if step == "oracle":
            start = n + call_no * aux_per_call
            aux = tuple(range(start, start + aux_per_call)) if measured else None
            builder.extend(_block_oracle(spec, block1, block2, ancillas, aux))
            call_no += 1
        elif step == "g2":
            builder.extend(synth.diffuser(len(block2), tuple(block2)))
        else:
            builder.extend(synth.diffuser(len(block1), tuple(block1)))

    if extra_aa_round:
        aa_style = "plain-mcz" if plain else "ancilla-relphase"
        builder.extend(synth.oracle(OracleSpec(n, spec.mask, aa_style), ancillas=ancillas))
        builder.extend(
            synth.diffuser(
                n,
                tuple(range(n)),
                method="plain" if plain else "relphase-maslov",
                ancillas=ancillas,
            )
        )

    _measure_all(builder, n)
    builder.metadata(
        family=family if not extra_aa_round else "wojter-aa",
        n=n,
        mask=spec.mask,
        partition=list(partition.parts),
        uncompute=uncompute,
        oracle_calls=n_calls,
        schedule=list(schedule),
        data_clbits=list(range(n)),
        ancillas=list(ancillas),
        oracle_tree="fold3-left-deep",
        diffuser_phase="-1",
    )
    circ = builder.build()
    if uncompute == "partial":
        # uncompute/recompute pairs across disjoint diffusers cancel, and
        # uncompute that no measurement can see falls away
        circ = strip_trailing_uncompute(peephole_cancel(circ))
    return circ


def build_wojter(
    spec: OracleSpec,
    partition: Partition | None,
    uncompute: str = "partial",
    fused: bool = False,
    schedule: list[str] | None = None,
) -> Circuit:
    """Block-search circuit: block-2 sub-iterations build a block-1 oracle.

    The default layout interleaves four oracle calls with block diffusers;
    with fused=True the exact algebraic collapse is emitted instead (the
    three-call sub-iteration body equals a single polarized reflection on
    block 1), trading the query structure for a much lower 2-qubit count.
    """
    if fused:
        return _build_wojter_fused(spec, partition)
    return _build_block_family("wojter", spec, partition, uncompute, schedule)


def _build_wojter_fused(spec: OracleSpec, partition: Partition | None) -> Circuit:
    n = spec.n
    if partition is None:
        raise UnsupportedPartition("wojter needs a partition")
    block1, block2 = _split_blocks(partition, n)
    if not block2:
        return build_grover(spec, 1).with_metadata(family="wojter", fused=True)
    mask = spec.mask
    n_anc = len(synth.fold_plan(len(block1)))
    ancillas = tuple(range(n, n + n_anc))
    builder = CircuitBuilder(n + n_anc, n)
    for q in range(n):
        builder.h(q)
    # block-1 phase oracle (the collapsed sub-iteration body), then diffuser
    pol1 = tuple(int(mask[q]) for q in block1)
    builder.extend(synth.mcz_fragment(tuple(block1), method="exact-recursive", polarity=pol1))
    builder.extend(synth.diffuser(len(block1), tuple(block1)))
    # final block-2 grover step needs the mask AND of block 1 on an ancilla
    fold, live, folds = synth.and_fold_tree(tuple(block1), ancillas)
    if folds:
        conj = [x(q) for q in block1 if mask[q] == "0"]
        builder.extend(conj + fold + conj)
        pol = (1,)
    else:
        pol = (int(mask[block1[0]]),)
    builder.add(cz(*live, *block2, polarity=pol + tuple(int(mask[q]) for q in block2)))
    builder.extend(synth.diffuser(len(block2), tuple(block2)))
    _measure_all(builder, n)
    builder.metadata(
        family="wojter",
        n=n,
        mask=mask,
        partition=list(partition.parts),
        fused=True,
        oracle_calls=4,
        data_clbits=list(range(n)),
        ancillas=list(ancillas),
        oracle_tree="fold3-left-deep",
        diffuser_phase="-1",
    )
    return builder.build()


def build_wojter_aa(
    spec: OracleSpec,
    partition: Partition | None,
    uncompute: str = "partial",
) -> Circuit:
    """Wojter followed by one full oracle + full-register diffuser round."""
    return _build_block_family("wojter", spec, partition, uncompute, None, extra_aa_round=True)


def build_drzewker(
    spec: OracleSpec,
    partition: Partition | None,
    uncompute: str = "partial",
    schedule: list[str] | None = None,
) -> Circuit:
    """Same block structure as wojter with one sub-iteration group fewer."""
    return _build_block_family("drzewker", spec, partition, uncompute, schedule)


def build_partial_drzewker(
    spec: OracleSpec,
    partition: Partition | None,
    uncompute: str = "partial",
) -> Circuit:
    """Drzewker truncated after its first two diffusers; ancilla uncomputed."""
    return _build_block_family("partial-drzewker", spec, partition, uncompute, None)


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
