"""Superinstruction fusion: splice mined opcode sequences into one handler.

This is the VM-side answer to the paper's JIT-ISE loop (Section V): the
dispatch observatory (:mod:`repro.obs.vmprof`) mines hot straight-line
opcode n-grams exactly the way the paper's candidate search mines dataflow
subgraphs; this module compiles each mined sequence *site* into a single
Python function whose body inlines the constituent operations, and the
interpreter's block compiler (:meth:`Interpreter._compile_block`) splices
it into the block body, so the one dispatch loop executes N instructions
behind one handler call — a "software Woolcano".

Correctness argument (same as :mod:`repro.vm.patcher` makes for CUSTOM
instructions): every inlined operation is either the interpreter's own
fast-path expression copied verbatim (masked integer wrap, fdiv
zero-check, fast icmp predicates) or a call into the shared constant-fold
evaluators (``fold_binary``/``fold_icmp``/``fold_fcmp``/``fold_cast``)
that both the optimizer and the plain dispatch path already use — so the
fused path cannot drift from plain-path semantics. Every SSA result is
still stored into ``env`` (later blocks, phis and un-fused neighbours
read it), so fusion is observationally invisible: same outputs, same
block counts, and — because the virtual PPC405 clock is derived post-hoc
from the *unmodified* module's static block composition — a bit-identical
virtual clock. A fused handler therefore "charges" the summed cycles of
its constituents automatically; only the real clock drops, because N
handler dispatches (closure call + operand-getter calls + loop bookkeeping)
collapse into one call with operands resolved to locals and literals.

Pipeline::

    plain run ──▶ ExecutionProfile ──▶ mine_superinsns (obs/vmprof)
                                           │ top-K ranked sequences
                                           ▼
    build_fusion_plan(module, sequences)   (once per CompiledApp)
      · match non-overlapping sites per block (CUSTOM/CALL/phi barriers)
      · exec-compile one factory per site (operands baked in)
                                           ▼
    Interpreter(fusion=plan) ──▶ _compile_block: sites spliced into body

The *plan* (matching + code generation + ``compile()``) is interpreter
independent and built once per :class:`~repro.apps.base.CompiledApp`;
binding a site to a concrete interpreter (memory functions, resolved
global addresses) is a cheap tuple-unpack done at block-compile time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.opcodes import BINARY_OPS, CAST_OPS, ICmpPred, Opcode
from repro.ir.values import Constant, GlobalVariable, UndefValue, Value

#: Opcodes that terminate a fusible straight-line region: calls and CUSTOM
#: hide arbitrary work (including nested dispatch) behind one handler,
#: phis are resolved at block entry, and terminators end the block.
#: The vmprof miner and the site matcher share this single definition, so
#: a mined sequence is fusible by construction.
FUSION_EXCLUDED = frozenset({"call", "custom", "phi", "br", "condbr", "ret"})

#: Candidate sequence lengths (straight-line opcode n-grams).
MIN_SEQ_LEN = 2
MAX_SEQ_LEN = 4

#: Default number of top-ranked mined sequences spliced in by ``--fuse``
#: (measured sweet spot on the four-app macro benchmark; see EXPERIMENTS.md).
DEFAULT_FUSE_TOP = 12

# Binding descriptor kinds, resolved when a site is bound to an interpreter.
_STATIC = "static"  # payload used as-is (types, predicates, evaluators)
_GLOBAL = "global"  # payload: GlobalVariable -> resolved address
_MEMFN = "memfn"  # payload: Memory method name ("load"/"store"/"alloca")

_INT_FAST = {Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*"}
_INT_BITWISE = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}
_FLOAT_FAST = {Opcode.FADD: "+", Opcode.FSUB: "-", Opcode.FMUL: "*"}
_ICMP_FAST = {
    ICmpPred.SLT: "<",
    ICmpPred.SGT: ">",
    ICmpPred.SLE: "<=",
    ICmpPred.SGE: ">=",
    ICmpPred.EQ: "==",
    ICmpPred.NE: "!=",
}


class FusionError(Exception):
    """A sequence cannot be compiled into a fused handler."""


@dataclass(frozen=True)
class FusedSite:
    """One fusible occurrence of a mined sequence inside a basic block.

    ``start`` indexes ``block.instructions`` (phis included); the
    interpreter's fused block compiler converts it to a handler slot.
    ``factory`` is the exec-compiled site factory: called with the
    resolved binding tuple it returns the fused handler ``env -> None``.
    """

    function: str
    block: str
    start: int
    length: int
    sequence: tuple[str, ...]
    factory: object
    bindings: tuple

    @property
    def name(self) -> str:
        return "+".join(self.sequence)

    def bind(self, interpreter) -> object:
        """Resolve bindings against *interpreter* and build the handler."""
        from repro.vm.interpreter import VMError

        values = []
        for kind, payload in self.bindings:
            if kind == _STATIC:
                values.append(payload)
            elif kind == _GLOBAL:
                if payload.address is None:
                    raise VMError(f"global @{payload.name} has no address")
                values.append(payload.address)
            else:  # _MEMFN
                values.append(getattr(interpreter.memory, payload))
        return self.factory(tuple(values))


@dataclass
class FusionPlan:
    """All fused sites for one module, built once per CompiledApp."""

    module: Module
    sequences: tuple[tuple[str, ...], ...]
    sites_by_block: dict[int, tuple[FusedSite, ...]] = field(
        default_factory=dict
    )

    @property
    def site_count(self) -> int:
        return sum(len(sites) for sites in self.sites_by_block.values())

    @property
    def fused_instructions(self) -> int:
        """Static instructions covered by fused sites."""
        return sum(
            site.length
            for sites in self.sites_by_block.values()
            for site in sites
        )

    def sites_for(self, block: BasicBlock) -> tuple[FusedSite, ...]:
        return self.sites_by_block.get(id(block), ())

    def all_sites(self) -> list[FusedSite]:
        """Deterministic (function, block, start) order."""
        sites = [
            site for group in self.sites_by_block.values() for site in group
        ]
        sites.sort(key=lambda s: (s.function, s.block, s.start))
        return sites

    def dispatches_removed(self, profile) -> int:
        """Dynamic handler dispatches eliminated under *profile*'s counts.

        A length-k site replaces k handler calls with 1 on every execution
        of its block, so each contributes ``count x (k-1)``.
        """
        total = 0
        for site in self.all_sites():
            block_prof = profile.blocks.get((site.function, site.block))
            if block_prof is not None:
                total += block_prof.count * (site.length - 1)
        return total

    def describe(self) -> dict:
        """Deterministic manifest block (counts only, no wall time)."""
        sequences: dict[str, dict] = {}
        for site in self.all_sites():
            entry = sequences.setdefault(
                site.name, {"length": site.length, "sites": 0}
            )
            entry["sites"] += 1
        return {
            "top": len(self.sequences),
            "sites": self.site_count,
            "fused_instructions": self.fused_instructions,
            "sequences": dict(sorted(sequences.items())),
        }


# -- plan construction -------------------------------------------------------
def build_fusion_plan(
    module: Module, sequences: list[tuple[str, ...]]
) -> FusionPlan:
    """Match *sequences* (ranked best-first) against every block of *module*.

    Matching is greedy in rank order and non-overlapping: once a higher
    ranked sequence claims instructions, lower-ranked ones flow around it.
    Sequences containing excluded opcodes are dropped (belt and braces —
    the miner never emits them), so a site can never span a CUSTOM
    instruction, a call, a phi, or the terminator.
    """
    normalized: list[tuple[str, ...]] = []
    for seq in sequences:
        seq = tuple(seq)
        if len(seq) < 2 or any(op in FUSION_EXCLUDED for op in seq):
            continue
        if seq not in normalized:
            normalized.append(seq)

    plan = FusionPlan(module=module, sequences=tuple(normalized))
    if not normalized:
        return plan
    for func in module.defined_functions():
        for block in func.blocks:
            sites = _match_block(func.name, block, normalized)
            if sites:
                plan.sites_by_block[id(block)] = tuple(sites)
    return plan


def plan_from_candidates(module: Module, candidates, top: int) -> FusionPlan:
    """Build a plan from ranked miner candidates (anything with .sequence)."""
    return build_fusion_plan(
        module, [c.sequence for c in candidates[: max(0, top)]]
    )


def _match_block(
    fname: str, block: BasicBlock, sequences: list[tuple[str, ...]]
) -> list[FusedSite]:
    instrs = block.instructions
    ops = [i.opcode.value for i in instrs]
    n = len(ops)
    taken = [False] * n
    sites: list[FusedSite] = []
    for seq in sequences:
        length = len(seq)
        start = 0
        while start <= n - length:
            window = tuple(ops[start : start + length])
            if window != seq or any(taken[start : start + length]):
                start += 1
                continue
            site = _compile_site(
                fname, block, start, instrs[start : start + length]
            )
            sites.append(site)
            for i in range(start, start + length):
                taken[i] = True
            start += length
    sites.sort(key=lambda s: s.start)
    return sites


# -- per-site code generation ------------------------------------------------
class _SiteCodegen:
    """Generates one fused handler's source plus its binding descriptors."""

    def __init__(self, fname: str, seq_name: str) -> None:
        self.fname = fname
        self.seq_name = seq_name
        self.lines: list[str] = []
        self.bindings: list[tuple[str, object]] = []  # (kind, payload)
        self._names: list[str] = []
        self._bound: dict[tuple, str] = {}
        self._locals: dict[int, str] = {}  # id(instr) -> local var

    # -- bindings ----------------------------------------------------------
    def bind(self, kind: str, payload: object) -> str:
        key = (kind, id(payload))
        name = self._bound.get(key)
        if name is None:
            name = f"_b{len(self.bindings)}"
            self._bound[key] = name
            self.bindings.append((kind, payload))
            self._names.append(name)
        return name

    def operand(self, value: Value) -> str:
        """Expression for one operand, mirroring Interpreter._getter."""
        local = self._locals.get(id(value))
        if local is not None:
            return local
        if isinstance(value, Constant):
            v = value.value
            if type(v) is int:
                return repr(v)
            return self.bind(_STATIC, v)
        if isinstance(value, GlobalVariable):
            return self.bind(_GLOBAL, value)
        if isinstance(value, UndefValue):
            return "0.0" if value.type.is_float else "0"
        return f"env[{id(value)}]"

    # -- emission ----------------------------------------------------------
    def emit(self, index: int, instr: Instruction) -> None:
        op = instr.opcode
        key = id(instr)
        res = f"v{index}"
        operands = instr.operands
        L = self.lines.append

        if op in _INT_FAST and instr.type.is_int:
            a, b = (self.operand(o) for o in operands)
            bits = instr.type.bits
            mask = (1 << bits) - 1
            half = 1 << (bits - 1) if bits > 1 else 1
            size = 1 << bits
            L(f"{res} = ({a} {_INT_FAST[op]} {b}) & {mask}")
            L(f"{res} = {res} - {size} if {res} >= {half} else {res}")
        elif op in _INT_BITWISE and instr.type.is_int:
            a, b = (self.operand(o) for o in operands)
            L(f"{res} = {a} {_INT_BITWISE[op]} {b}")
        elif op in _FLOAT_FAST:
            a, b = (self.operand(o) for o in operands)
            L(f"{res} = {a} {_FLOAT_FAST[op]} {b}")
        elif op is Opcode.FDIV:
            import math

            a, b = (self.operand(o) for o in operands)
            inf = self.bind(_STATIC, math.inf)
            nan = self.bind(_STATIC, math.nan)
            L(f"_den = {b}")
            L(f"_num = {a}")
            L("if _den == 0.0:")
            L(
                f"    {res} = {inf} if _num > 0 else"
                f" (-{inf} if _num < 0 else {nan})"
            )
            L("else:")
            L(f"    {res} = _num / _den")
        elif op in BINARY_OPS:
            from repro.ir.passes.constfold import (
                ConstantFoldError,
                fold_binary,
            )

            a, b = (self.operand(o) for o in operands)
            fb = self.bind(_STATIC, fold_binary)
            opc = self.bind(_STATIC, op)
            ty = self.bind(_STATIC, instr.type)
            cfe = self.bind(_STATIC, ConstantFoldError)
            from repro.vm.interpreter import VMError

            vme = self.bind(_STATIC, VMError)
            L("try:")
            L(f"    {res} = {fb}({opc}, {ty}, {a}, {b})")
            L(f"except {cfe} as exc:")
            L(f'    raise {vme}(f"{self.fname}: {{exc}}") from None')
        elif op is Opcode.ICMP:
            a, b = (self.operand(o) for o in operands)
            sym = _ICMP_FAST.get(instr.pred)
            if sym is not None:
                L(f"{res} = 1 if {a} {sym} {b} else 0")
            else:
                from repro.ir.passes.constfold import fold_icmp

                fi = self.bind(_STATIC, fold_icmp)
                pred = self.bind(_STATIC, instr.pred)
                oty = self.bind(_STATIC, operands[0].type)
                L(f"{res} = {fi}({pred}, {oty}, {a}, {b})")
        elif op is Opcode.FCMP:
            from repro.ir.passes.constfold import fold_fcmp

            a, b = (self.operand(o) for o in operands)
            ff = self.bind(_STATIC, fold_fcmp)
            pred = self.bind(_STATIC, instr.pred)
            L(f"{res} = {ff}({pred}, {a}, {b})")
        elif op in CAST_OPS:
            from repro.ir.passes.constfold import fold_cast

            a = self.operand(operands[0])
            fc = self.bind(_STATIC, fold_cast)
            opc = self.bind(_STATIC, op)
            src = self.bind(_STATIC, operands[0].type)
            dst = self.bind(_STATIC, instr.type)
            L(f"{res} = {fc}({opc}, {src}, {dst}, {a})")
        elif op is Opcode.SELECT:
            c, t, f = (self.operand(o) for o in operands)
            L(f"{res} = {t} if {c} else {f}")
        elif op is Opcode.FNEG:
            L(f"{res} = -{self.operand(operands[0])}")
        elif op is Opcode.LOAD:
            a = self.operand(operands[0])
            load = self.bind(_MEMFN, "load")
            ty = self.bind(_STATIC, instr.type)
            L(f"{res} = {load}({a}, {ty})")
        elif op is Opcode.STORE:
            v, p = (self.operand(o) for o in operands)
            store = self.bind(_MEMFN, "store")
            ty = self.bind(_STATIC, operands[0].type)
            L(f"{store}({p}, {ty}, {v})")
            return  # no result
        elif op is Opcode.GEP:
            p, i = (self.operand(o) for o in operands)
            L(f"{res} = {p} + {i} * {instr.elem_size}")
        elif op is Opcode.ALLOCA:
            alloca = self.bind(_MEMFN, "alloca")
            L(f"{res} = {alloca}({instr.elem_size * instr.alloc_count})")
        else:
            raise FusionError(
                f"opcode {op.value!r} is not fusible"
            )  # pragma: no cover - matcher filters these

        # Every result is still published to env: later blocks, phis and
        # un-fused neighbours read SSA values there. This is what keeps
        # fusion observationally invisible.
        L(f"env[{key}] = {res}")
        self._locals[key] = res

    def source(self) -> str:
        body = "\n".join(f"            {line}" for line in self.lines)
        unpack = ""
        if self._names:
            unpack = f"    ({', '.join(self._names)},) = _B\n"
        return (
            f"def _make(_B):\n"
            f"{unpack}"
            f"    def _fused(env):\n"
            f"        try:\n"
            f"{body}\n"
            f"        except KeyError:\n"
            f"            raise _VME(\n"
            f'                "{self.fname}: use of undefined value in '
            f'fused {self.seq_name}"\n'
            f"            ) from None\n"
            f"    return _fused\n"
        )


def _compile_site(
    fname: str, block: BasicBlock, start: int, instrs: list[Instruction]
) -> FusedSite:
    sequence = tuple(i.opcode.value for i in instrs)
    gen = _SiteCodegen(fname, "+".join(sequence))
    for index, instr in enumerate(instrs):
        gen.emit(index, instr)
    source = gen.source()
    from repro.vm.interpreter import VMError

    namespace: dict = {"_VME": VMError}
    code = compile(
        source,
        f"<fused {fname}/{block.name}@{start}: {'+'.join(sequence)}>",
        "exec",
    )
    exec(code, namespace)
    return FusedSite(
        function=fname,
        block=block.name,
        start=start,
        length=len(instrs),
        sequence=sequence,
        factory=namespace["_make"],
        bindings=tuple(gen.bindings),
    )
