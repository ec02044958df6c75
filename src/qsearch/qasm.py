"""Text serialization, one instruction per line, QASM-2 flavored.

Grammar (subset):
    qreg q[n]; creg c[m];
    h|x|z q[i];
    rz(theta) q[i];
    cx|ccx|cccx q[i], ..., q[t];      # last operand is the target
    cz q[i], q[j];
    mcz(k) q[i0], ..., q[ik-1];
    measure q[i] -> c[j];
    if (c[j]==v) <gate>;
    barrier;
    # comment

Extensions over the plain subset: a `!` prefix on a control operand marks
control-on-zero polarity (`cx !q[0], q[1];`), and a `# meta: {...}` comment
carries circuit metadata as JSON (use JSON-representable values: lists, not
tuples).  Every error is a ParseError that names its line.
"""
from __future__ import annotations

import json
import re

from .circuit import Circuit, CircuitBuilder, Gate, cx, cz, measure, rz
from .circuit import barrier as barrier_gate
from .circuit import h as h_gate
from .circuit import x as x_gate
from .circuit import z as z_gate
from .errors import ParseError, ValidationError

_CX_NAMES = {1: "cx", 2: "ccx", 3: "cccx"}


def _operand(q: int, neg: bool = False) -> str:
    return ("!" if neg else "") + f"q[{q}]"


def _gate_text(gate: Gate) -> str:
    name = gate.name
    if name in ("h", "x", "z"):
        return f"{name} {_operand(gate.qubits[0])}"
    if name == "rz":
        return f"rz({gate.angle!r}) {_operand(gate.qubits[0])}"
    if name == "cx":
        k = len(gate.qubits) - 1
        if k not in _CX_NAMES:
            raise ValidationError(f"no text form for cx with {k} controls")
        pol = gate.effective_polarity()
        ops = [_operand(q, p == 0) for q, p in zip(gate.qubits[:-1], pol)]
        ops.append(_operand(gate.qubits[-1]))
        return f"{_CX_NAMES[k]} " + ", ".join(ops)
    if name == "cz":
        pol = gate.effective_polarity()
        ops = ", ".join(_operand(q, p == 0) for q, p in zip(gate.qubits, pol))
        head = "cz" if len(gate.qubits) == 2 else f"mcz({len(gate.qubits)})"
        return f"{head} {ops}"
    if name == "measure":
        return f"measure {_operand(gate.qubits[0])} -> c[{gate.clbit}]"
    if name == "barrier":
        return "barrier"
    raise ValidationError(f"no text form for gate {name!r}")


def serialize(circuit: Circuit) -> str:
    lines = []
    if circuit.metadata:
        lines.append("# meta: " + json.dumps(circuit.metadata, sort_keys=True))
    lines.append(f"qreg q[{circuit.n_qubits}];")
    lines.append(f"creg c[{circuit.n_clbits}];")
    for instr in circuit.instructions:
        text = _gate_text(instr.gate)
        if instr.condition is not None:
            bit, value = instr.condition
            text = f"if (c[{bit}]=={value}) {text}"
        lines.append(text + ";")
    return "\n".join(lines) + "\n"


_REG_RE = re.compile(r"^(qreg|creg)\s+([qc])\[(\d+)\]$")
_IF_RE = re.compile(r"^if\s*\(\s*c\[(\d+)\]\s*==\s*([01])\s*\)\s*(.+)$")
_MEASURE_RE = re.compile(r"^measure\s+q\[(\d+)\]\s*->\s*c\[(\d+)\]$")
_GATE_RE = re.compile(r"^([a-z]+)(?:\(([^)]*)\))?\s*(.*)$")
_OPERAND_RE = re.compile(r"^(!?)q\[(\d+)\]$")


def _parse_operands(text: str, line: int) -> list[tuple[int, bool]]:
    out = []
    for raw in text.split(","):
        m = _OPERAND_RE.match(raw.strip())
        if not m:
            raise ParseError(f"bad operand {raw.strip()!r}", line)
        out.append((int(m.group(2)), m.group(1) == "!"))
    return out


def _build_gate(name: str, param: str | None, operands: list[tuple[int, bool]], line: int) -> Gate:
    qubits = tuple(q for q, _ in operands)
    negs = [neg for _, neg in operands]
    if name in ("h", "x", "z"):
        if len(qubits) != 1 or negs[0]:
            raise ParseError(f"{name} takes one plain operand", line)
        return {"h": h_gate, "x": x_gate, "z": z_gate}[name](qubits[0])
    if name == "rz":
        if param is None:
            raise ParseError("rz needs an angle parameter", line)
        if len(qubits) != 1 or negs[0]:
            raise ParseError("rz takes one plain operand", line)
        try:
            angle = float(param)
        except ValueError as exc:
            raise ParseError(f"bad angle {param!r}", line) from exc
        return rz(angle, qubits[0])
    if name in ("cx", "ccx", "cccx"):
        want = {"cx": 2, "ccx": 3, "cccx": 4}[name]
        if len(qubits) != want:
            raise ParseError(f"{name} takes {want} operands", line)
        if negs[-1]:
            raise ParseError("target operand cannot carry a polarity mark", line)
        pol = tuple(0 if neg else 1 for neg in negs[:-1])
        return cx(*qubits, polarity=pol)
    if name == "cz" or name == "mcz":
        if name == "mcz":
            if param is None or not param.strip().isdigit():
                raise ParseError("mcz needs an integer arity parameter", line)
            if int(param) != len(qubits):
                raise ParseError("mcz arity does not match operand count", line)
        elif len(qubits) != 2:
            raise ParseError("cz takes two operands", line)
        pol = tuple(0 if neg else 1 for neg in negs)
        return cz(*qubits, polarity=pol)
    raise ParseError(f"unknown gate {name!r}", line)


def parse(text: str) -> Circuit:
    """Parse the text format back into a Circuit (round-trips serialize)."""
    metadata: dict = {}
    statements: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("meta:"):
                try:
                    metadata = json.loads(body[len("meta:"):])
                except json.JSONDecodeError as exc:
                    raise ParseError("bad metadata JSON", lineno) from exc
                if not isinstance(metadata, dict):
                    raise ParseError("metadata must be a JSON object", lineno)
            continue
        if "#" in line:
            line = line[: line.index("#")]
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if stmt:
                statements.append((stmt, lineno))

    sizes: dict[str, int] = {}  # per declaration kind
    body: list[tuple[str, int]] = []
    for stmt, lineno in statements:
        m = _REG_RE.match(stmt)
        if m:
            kind, reg, size = m.groups()
            if (kind, reg) not in (("qreg", "q"), ("creg", "c")):
                raise ParseError(f"register {reg!r} must match declaration {kind!r}", lineno)
            if kind in sizes:
                raise ParseError(f"second {kind} declaration", lineno)
            sizes[kind] = int(size)
            continue
        body.append((stmt, lineno))
    if "qreg" not in sizes:
        raise ParseError("missing qreg declaration", 1)

    builder = CircuitBuilder(sizes["qreg"], sizes.get("creg", 0), metadata=metadata)
    for stmt, lineno in body:
        try:
            condition = None
            m = _IF_RE.match(stmt)
            if m:
                condition = (int(m.group(1)), int(m.group(2)))
                stmt = m.group(3).strip()
            m = _MEASURE_RE.match(stmt)
            if m:
                gate = measure(int(m.group(1)), int(m.group(2)))
            elif stmt == "barrier":
                gate = barrier_gate()
            else:
                m = _GATE_RE.match(stmt)
                if not m:
                    raise ParseError(f"cannot parse statement {stmt!r}", lineno)
                name, param, rest = m.groups()
                operands = _parse_operands(rest, lineno) if rest.strip() else []
                gate = _build_gate(name, param, operands, lineno)
            builder.add(gate, condition)
        except ParseError:
            raise
        except ValidationError as exc:  # a gate or builder check, given its line
            raise ParseError(str(exc), lineno) from exc
    return builder.build()
