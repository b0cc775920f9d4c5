"""The IR interpreter.

Executes a module function-by-function with a flat memory, recording a
basic-block execution profile. Arithmetic reuses the constant-folding
evaluators (or inlined equivalents verified against them by property
tests), so interpreter and optimizer semantics cannot drift apart.

Execution time is *not* wall-clock: the profile is converted into PPC-405
cycles (and hence virtual seconds) after the run by
:class:`repro.vm.jitruntime.JitRuntimeModel`. This keeps app runs fast in
Python while making the reported runtimes deterministic.

Implementation note (profiled optimization): each basic block is compiled
once into a list of Python closures with operands resolved at compile time
— constants and global addresses are baked in, SSA values become direct
dict lookups. This removes the per-execution isinstance/dispatch overhead
that dominated the naive tree-walking interpreter (~2.5x faster).

One dispatch loop (:meth:`Interpreter._call`) runs every configuration.
A block compiles to ``(record, size, phi_plan, body, terminator)``.
Passing a :class:`repro.vm.fusion.FusionPlan` as ``fusion=`` splices mined
superinstruction sites into ``body`` as single exec-compiled handlers, so
N dispatches become one call; a plain block is a fused block with no
sites. Passing a :class:`repro.vm.profiler.BlockTimeSampler` as
``sampler=`` compiles a ``record`` that also ticks the sampler, which
attributes real wall time to compiled blocks (the dispatch observatory's
real clock). Block counts and the virtual clock are bit-identical in all
four configurations: neither feature touches the module, and step/cycle
accounting uses the static block size. See docs/VM.md for the block
tuple and the bit-identity invariant.

This is the execution half of the paper's LLVM JIT VM (Figure 1); the
profiles it records feed the coverage analysis of Section IV-C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, PhiInstruction
from repro.ir.module import Module
from repro.ir.opcodes import FCmpPred, ICmpPred, Opcode
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value
from repro.ir.passes.constfold import (
    ConstantFoldError,
    fold_binary,
    fold_cast,
    fold_fcmp,
    fold_icmp,
)
from repro.ir.types import to_unsigned, wrap_int
from typing import TYPE_CHECKING
from repro.obs import get_metrics, metrics_enabled

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.fusion import FusionPlan
from repro.vm.intrinsics import INTRINSICS
from repro.vm.memory import Memory, MemoryError_
from repro.vm.profiler import BlockTimeSampler, ExecutionProfile


class VMError(Exception):
    """Runtime fault during interpretation (trap, OOM, step limit)."""


@dataclass
class ExecutionResult:
    """Outcome of one program execution."""

    return_value: object
    profile: ExecutionProfile
    output: list = field(default_factory=list)
    steps: int = 0


# Control-flow sentinels returned by terminator handlers.
_JUMP = 0
_RETURN = 1


class Interpreter:
    """Interprets IR modules.

    One interpreter instance holds one memory image (globals are placed at
    construction), so successive ``run`` calls share global state — matching
    how a VM process would behave. Tests typically build a fresh interpreter
    per run.
    """

    def __init__(
        self,
        module: Module,
        memory_size: int = 1 << 22,
        max_steps: int = 200_000_000,
        dataset_size: int = 0,
        dataset_seed: int = 1,
        sampler: BlockTimeSampler | None = None,
        fusion: "FusionPlan | None" = None,
    ) -> None:
        self.module = module
        self.memory = Memory(memory_size)
        self.memory.place_globals(list(module.globals.values()))
        self.max_steps = max_steps
        self.dataset_size = dataset_size
        self.dataset_seed = dataset_seed
        self.output: list = []
        self.rand_state = 1
        self.cycles_executed = 0  # coarse counter exposed to clock()
        # Real-clock sampler and superinstruction fusion plan, both None by
        # default. Both are fixed for the interpreter's lifetime and baked
        # into each compiled block, so the dispatch loop tests neither.
        self.sampler = sampler
        self.fusion = fusion
        self._steps = 0
        self._profile = ExecutionProfile(module.name)
        # Custom-instruction evaluators installed by the binary patcher:
        # custom_id -> callable(list_of_operand_values) -> value
        self.custom_evaluators: dict[int, object] = {}
        # Compiled-block cache: id(block) -> (record, size, phi_plan, body, term)
        self._compiled: dict[int, tuple] = {}
        # Observability: intrinsic-call counts, flushed to the metrics
        # registry once per run (never touched on the hot path unless
        # metrics were enabled when the block was compiled).
        self._intrinsic_counts: dict[str, int] = {}

    # -- public API ----------------------------------------------------------
    def run(self, function_name: str = "main", args: list | None = None) -> ExecutionResult:
        """Execute *function_name* to completion and return its result."""
        func = self.module.function(function_name)
        self._steps = 0
        self._profile = ExecutionProfile(self.module.name)
        if self.sampler is not None:
            self.sampler.begin()
        value = self._call(func, list(args or []))
        registry = get_metrics()
        if registry.enabled:
            # Counters are flushed once per run (sampled, not per step) so
            # metrics collection never slows the interpretation loop.
            registry.counter("vm.runs").inc()
            registry.counter("vm.instructions").inc(self._steps)
            registry.counter("vm.block_executions").inc(
                self._profile.total_block_executions
            )
            for name, count in self._intrinsic_counts.items():
                registry.counter(f"vm.intrinsic.{name}").inc(count)
            self._intrinsic_counts.clear()
        return ExecutionResult(
            return_value=value,
            profile=self._profile,
            output=list(self.output),
            steps=self._steps,
        )

    # -- execution core ------------------------------------------------------
    def _call(self, func: Function, args: list):
        if func.is_declaration:
            raise VMError(f"call to undefined function {func.name}")
        if len(args) != len(func.args):
            raise VMError(
                f"{func.name}: expected {len(func.args)} args, got {len(args)}"
            )
        frame_token = self.memory.push_frame()
        env: dict[int, object] = {}
        for formal, actual in zip(func.args, args):
            env[id(formal)] = actual

        block = func.entry
        prev_block_id = 0
        fname = func.name
        compiled = self._compiled
        max_steps = self.max_steps

        try:
            while True:
                plan = compiled.get(id(block))
                if plan is None:
                    plan = self._compile_block(fname, block)
                    compiled[id(block)] = plan
                record, size, phi_plan, body, term = plan

                record(fname)
                self._steps += size
                self.cycles_executed += size
                if self._steps > max_steps:
                    raise VMError(
                        f"step limit exceeded ({self.max_steps}) in {fname}"
                    )

                if phi_plan is not None:
                    keys, tables = phi_plan
                    values = [t[prev_block_id](env) for t in tables]
                    for key, value in zip(keys, values):
                        env[key] = value

                # Straight-line body, then the terminator: the verifier
                # guarantees exactly one terminator, last in the block, so
                # body handlers need no control-tuple check.
                for handler in body:
                    handler(env)
                kind, payload = term(env)
                if kind == _RETURN:
                    return payload
                prev_block_id = id(block)
                block = payload
        except MemoryError_ as exc:
            raise VMError(f"{fname}: {exc}") from None
        finally:
            self.memory.pop_frame(frame_token)

    # -- block compilation -----------------------------------------------------
    def _compile_block(self, fname: str, block: BasicBlock):
        """Compile *block* into ``(record, size, phi_plan, body, terminator)``.

        ``body`` holds one handler per non-phi, non-terminator instruction,
        except that each fusion site of the block contributes a single
        handler for its whole sequence; a plain block is a fused block with
        no sites. ``size`` stays the static instruction count of the
        unfused block -- the bit-identity invariant: fusion changes how many
        Python calls execute a block, never how the block is accounted.
        ``record`` counts the block in the profile and, when a sampler is
        attached, also ticks it.
        """
        phis = block.phis()
        phi_plan = None
        if phis:
            keys = [id(p) for p in phis]
            tables = []
            for phi in phis:
                table: dict[int, object] = {}
                for value, inc_block in phi.incoming:
                    table[id(inc_block)] = self._getter(value)
                tables.append(table)
            phi_plan = (keys, tables)

        instrs = block.instructions
        last = len(instrs) - 1
        sites = (
            {site.start: site for site in self.fusion.sites_for(block)}
            if self.fusion is not None
            else {}
        )
        body = []
        i = len(phis)
        while i < last:
            site = sites.get(i)
            if site is not None and i + site.length <= last:
                body.append(site.bind(self))
                i += site.length
            else:
                body.append(self._compile_instr(fname, instrs[i]))
                i += 1
        terminator = self._compile_instr(fname, instrs[last])

        size = len(instrs)
        block_name = block.name
        sampler = self.sampler

        if sampler is None:

            def record(function_name: str, _size=size, _name=block_name) -> None:
                # self._profile is replaced per run(); resolve dynamically.
                self._profile.record(function_name, _name, _size)

        else:
            interval = sampler.interval
            samples = sampler.samples

            def record(function_name: str, _size=size, _name=block_name) -> None:
                self._profile.record(function_name, _name, _size)
                # Sampling tick: every `interval` block executions, charge
                # the elapsed wall time to the block entered right now.
                sampler.tick += 1
                if sampler.tick >= interval:
                    now = perf_counter()
                    skey = (function_name, _name)
                    samples[skey] = samples.get(skey, 0.0) + now - sampler.last
                    sampler.last = now
                    sampler.tick = 0
                    sampler.sample_count += 1

        return (record, size, phi_plan, tuple(body), terminator)

    def _getter(self, value: Value):
        """Compile an operand into a zero-branch accessor."""
        if isinstance(value, Constant):
            v = value.value
            return lambda env, _v=v: _v
        if isinstance(value, GlobalVariable):
            if value.address is None:
                raise VMError(f"global @{value.name} has no address")
            addr = value.address
            return lambda env, _a=addr: _a
        if isinstance(value, UndefValue):
            v = 0.0 if value.type.is_float else 0
            return lambda env, _v=v: _v
        key = id(value)

        def get(env, _k=key):
            try:
                return env[_k]
            except KeyError:
                name = getattr(value, "name", "?")
                raise VMError(f"use of undefined value %{name}") from None

        return get

    # -- instruction compilation ---------------------------------------------
    def _compile_instr(self, fname: str, instr: Instruction):
        op = instr.opcode
        key = id(instr)
        operands = instr.operands
        getters = [self._getter(o) for o in operands]

        # ---- integer binary ops with inlined wrapping --------------------
        if op in _INT_FAST_OPS and instr.type.is_int:
            g0, g1 = getters
            bits = instr.type.bits
            mask = (1 << bits) - 1
            half = 1 << (bits - 1) if bits > 1 else 1
            size = 1 << bits
            kind = op

            if kind is Opcode.ADD:

                def h(env):
                    v = (g0(env) + g1(env)) & mask
                    env[key] = v - size if v >= half else v

            elif kind is Opcode.SUB:

                def h(env):
                    v = (g0(env) - g1(env)) & mask
                    env[key] = v - size if v >= half else v

            elif kind is Opcode.MUL:

                def h(env):
                    v = (g0(env) * g1(env)) & mask
                    env[key] = v - size if v >= half else v

            elif kind is Opcode.AND:

                def h(env):
                    env[key] = g0(env) & g1(env)

            elif kind is Opcode.OR:

                def h(env):
                    env[key] = g0(env) | g1(env)

            else:  # XOR

                def h(env):
                    env[key] = g0(env) ^ g1(env)

            return h

        # ---- float binary ops --------------------------------------------
        if op in _FLOAT_FAST_OPS:
            g0, g1 = getters
            if op is Opcode.FADD:

                def h(env):
                    env[key] = g0(env) + g1(env)

            elif op is Opcode.FSUB:

                def h(env):
                    env[key] = g0(env) - g1(env)

            elif op is Opcode.FMUL:

                def h(env):
                    env[key] = g0(env) * g1(env)

            else:  # FDIV

                def h(env):
                    b = g1(env)
                    a = g0(env)
                    if b == 0.0:
                        env[key] = (
                            math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
                        )
                    else:
                        env[key] = a / b

            return h

        # ---- remaining binary ops via the shared fold evaluators ---------
        from repro.ir.opcodes import BINARY_OPS, CAST_OPS

        if op in BINARY_OPS:
            g0, g1 = getters
            ty = instr.type

            def h(env):
                try:
                    env[key] = fold_binary(op, ty, g0(env), g1(env))
                except ConstantFoldError as exc:
                    raise VMError(f"{fname}: {exc}") from None

            return h

        if op is Opcode.ICMP:
            g0, g1 = getters
            pred = instr.pred
            oty = operands[0].type
            if pred is ICmpPred.SLT:
                return lambda env: env.__setitem__(key, 1 if g0(env) < g1(env) else 0)
            if pred is ICmpPred.SGT:
                return lambda env: env.__setitem__(key, 1 if g0(env) > g1(env) else 0)
            if pred is ICmpPred.SLE:
                return lambda env: env.__setitem__(key, 1 if g0(env) <= g1(env) else 0)
            if pred is ICmpPred.SGE:
                return lambda env: env.__setitem__(key, 1 if g0(env) >= g1(env) else 0)
            if pred is ICmpPred.EQ:
                return lambda env: env.__setitem__(key, 1 if g0(env) == g1(env) else 0)
            if pred is ICmpPred.NE:
                return lambda env: env.__setitem__(key, 1 if g0(env) != g1(env) else 0)

            def h(env):
                env[key] = fold_icmp(pred, oty, g0(env), g1(env))

            return h

        if op is Opcode.FCMP:
            g0, g1 = getters
            pred = instr.pred

            def h(env):
                env[key] = fold_fcmp(pred, g0(env), g1(env))

            return h

        if op in CAST_OPS:
            g0 = getters[0]
            src_ty = operands[0].type
            dst_ty = instr.type

            def h(env):
                env[key] = fold_cast(op, src_ty, dst_ty, g0(env))

            return h

        if op is Opcode.SELECT:
            gc, gt, gf = getters

            def h(env):
                env[key] = gt(env) if gc(env) else gf(env)

            return h

        if op is Opcode.FNEG:
            g0 = getters[0]

            def h(env):
                env[key] = -g0(env)

            return h

        # ---- memory ----------------------------------------------------------
        if op is Opcode.LOAD:
            g0 = getters[0]
            load = self.memory.load
            ty = instr.type

            def h(env):
                env[key] = load(g0(env), ty)

            return h

        if op is Opcode.STORE:
            gv, gp = getters
            store = self.memory.store
            ty = operands[0].type

            def h(env):
                store(gp(env), ty, gv(env))

            return h

        if op is Opcode.GEP:
            gp, gi = getters
            scale = instr.elem_size

            def h(env):
                env[key] = gp(env) + gi(env) * scale

            return h

        if op is Opcode.ALLOCA:
            nbytes = instr.elem_size * instr.alloc_count
            alloca = self.memory.alloca

            def h(env):
                env[key] = alloca(nbytes)

            return h

        # ---- calls -----------------------------------------------------------
        if op is Opcode.CALL:
            callee = instr.callee
            has_result = instr.has_result
            if isinstance(callee, str):
                intr = INTRINSICS.get(callee)
                if intr is None:
                    raise VMError(f"unknown intrinsic {callee!r}")
                fn = intr.fn

                # Intrinsic-call counting is baked in at block-compile time:
                # with metrics disabled (the default) the handlers below are
                # count-free, so observability costs the hot loop nothing.
                if metrics_enabled():
                    counts = self._intrinsic_counts
                    name = callee

                    if has_result:

                        def h(env):
                            counts[name] = counts.get(name, 0) + 1
                            env[key] = fn(self, *[g(env) for g in getters])

                    else:

                        def h(env):
                            counts[name] = counts.get(name, 0) + 1
                            fn(self, *[g(env) for g in getters])

                    return h

                if has_result:

                    def h(env):
                        env[key] = fn(self, *[g(env) for g in getters])

                else:

                    def h(env):
                        fn(self, *[g(env) for g in getters])

                return h

            call = self._call

            if has_result:

                def h(env):
                    env[key] = call(callee, [g(env) for g in getters])

            else:

                def h(env):
                    call(callee, [g(env) for g in getters])

            return h

        if op is Opcode.CUSTOM:
            custom_id = instr.custom_id
            evaluators = self.custom_evaluators

            def h(env):
                evaluator = evaluators.get(custom_id)
                if evaluator is None:
                    raise VMError(
                        f"no evaluator for custom instruction #{custom_id}"
                    )
                env[key] = evaluator([g(env) for g in getters])

            return h

        # ---- terminators -----------------------------------------------------
        if op is Opcode.BR:
            target = instr.targets[0]
            ctl = (_JUMP, target)
            return lambda env, _c=ctl: _c

        if op is Opcode.CONDBR:
            g0 = getters[0]
            ctl_true = (_JUMP, instr.targets[0])
            ctl_false = (_JUMP, instr.targets[1])
            return lambda env: ctl_true if g0(env) else ctl_false

        if op is Opcode.RET:
            if getters:
                g0 = getters[0]
                return lambda env: (_RETURN, g0(env))
            none_ctl = (_RETURN, None)
            return lambda env, _c=none_ctl: _c

        raise VMError(f"cannot interpret opcode {op}")  # pragma: no cover


_INT_FAST_OPS = frozenset(
    {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR}
)
_FLOAT_FAST_OPS = frozenset(
    {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV}
)
