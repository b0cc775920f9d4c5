"""Superinstruction fusion: differential and structural tests.

The load-bearing property is *observational invisibility*: for any
program, the fused dispatch path must produce the same outputs, the same
per-block execution counts, and a bit-identical virtual PPC405 clock as
the plain path — only the real clock may move. The differential tests
below check exactly that on randomized straight-line programs (mirroring
the paper's argument that ISE rewriting must preserve semantics), and the
structural tests pin down the matcher's barriers (no overlaps, no CUSTOM,
no phis, no terminators) and the trap parity of fused evaluators.
"""

import random

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.opcodes import FCmpPred, ICmpPred, Opcode
from repro.ir.types import F64, I1, I32, I64
from repro.vm.costmodel import PPC405_COST_MODEL
from repro.vm.fusion import (
    DEFAULT_FUSE_TOP,
    FUSION_EXCLUDED,
    build_fusion_plan,
    plan_from_candidates,
)
from repro.vm.interpreter import Interpreter, VMError
from repro.vm.profiler import BlockTimeSampler
from repro.obs.vmprof import mine_superinsns


#: The sampler x fusion matrix: every configuration runs the same dispatch
#: loop, so all four must agree on everything but the real clock.
CONFIGS = {
    "plain": (False, False),
    "sampled": (True, False),
    "fused": (False, True),
    "fused+sampled": (True, True),
}


def mine_plan(module, entry="main", args=None, top=10, **interp_kwargs):
    """Run *module* plain and fuse its own top mined sequences."""
    plain = Interpreter(module, **interp_kwargs).run(entry, args)
    candidates = mine_superinsns(module, plain.profile, 0.0, top=top)
    return plain, plan_from_candidates(module, candidates, top)


def interpreter_for(module, config, plan, sample_interval=3, **interp_kwargs):
    """An interpreter in one configuration of :data:`CONFIGS`."""
    sampled, fused = CONFIGS[config]
    return Interpreter(
        module,
        sampler=BlockTimeSampler(interval=sample_interval) if sampled else None,
        fusion=plan if fused else None,
        **interp_kwargs,
    )


def run_both(module, entry="main", args=None, sample_interval=0, top=10):
    """Run *module* plain, mine its own sequences, run fused; return both.

    With ``sample_interval > 0`` the fused run is also sampled (the plain
    reference stays unsampled).
    """
    plain, plan = mine_plan(module, entry, args, top)
    config = "fused+sampled" if sample_interval > 0 else "fused"
    fused = interpreter_for(module, config, plan, sample_interval).run(entry, args)
    return plain, fused, plan


def assert_invisible(module, plain, fused):
    assert fused.return_value == plain.return_value
    assert fused.output == plain.output
    assert fused.steps == plain.steps
    assert {k: p.count for k, p in fused.profile.blocks.items()} == {
        k: p.count for k, p in plain.profile.blocks.items()
    }
    assert fused.profile.total_cycles(
        module, PPC405_COST_MODEL
    ) == plain.profile.total_cycles(module, PPC405_COST_MODEL)


# -- randomized differential property ---------------------------------------
def build_random_module(seed: int, body_ops: int = 28) -> Module:
    """A random counted loop of straight-line int/float/memory operations.

    Divisors are forced non-zero (``x | 1`` / ``x*x + 1.0``) so every
    generated program is trap-free and the plain/fused comparison checks
    values, not crash behaviour (trap parity has its own test).
    """
    rng = random.Random(seed)
    module = Module(f"rand{seed}")
    func = module.declare_function("main", I32, [])
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    body = func.add_block("body")
    done = func.add_block("done")

    b = IRBuilder(entry)
    buf = b.alloca(I32, 16)
    fbuf = b.alloca(F64, 8)
    acc_slot = b.alloca(I32)
    i_slot = b.alloca(I32)
    for k in range(16):
        b.store(b.i32(rng.randrange(-50, 50)), b.gep(buf, b.i32(k), 4))
    for k in range(8):
        b.store(
            b.f64(rng.uniform(-4.0, 4.0)), b.gep(fbuf, b.i32(k), 8)
        )
    b.store(b.i32(rng.randrange(100)), acc_slot)
    b.store(b.i32(0), i_slot)
    b.br(loop)

    b.set_block(loop)
    i = b.load(I32, i_slot)
    cond = b.icmp(ICmpPred.SLT, i, b.i32(200))
    b.condbr(cond, body, done)

    b.set_block(body)
    i = b.load(I32, i_slot)
    ints = [i, b.load(I32, acc_slot)]
    floats = []
    bools = []
    for _ in range(body_ops):
        kind = rng.randrange(10)
        if kind < 3:
            op = rng.choice([b.add, b.sub, b.mul, b.and_, b.or_, b.xor])
            ints.append(op(rng.choice(ints), rng.choice(ints)))
        elif kind == 3:
            op = rng.choice([b.sdiv, b.srem])
            ints.append(
                op(rng.choice(ints), b.or_(rng.choice(ints), b.i32(1)))
            )
        elif kind == 4:
            pred = rng.choice(list(ICmpPred))
            bools.append(b.icmp(pred, rng.choice(ints), rng.choice(ints)))
            ints.append(b.zext(bools[-1], I32))
        elif kind == 5 and bools:
            ints.append(
                b.select(
                    rng.choice(bools), rng.choice(ints), rng.choice(ints)
                )
            )
        elif kind == 6:
            idx = b.and_(rng.choice(ints), b.i32(15))
            slot = b.gep(buf, idx, 4)
            if rng.random() < 0.5:
                b.store(rng.choice(ints), slot)
            ints.append(b.load(I32, slot))
        elif kind == 7:
            floats.append(b.sitofp(rng.choice(ints), F64))
        elif kind == 8 and floats:
            op = rng.choice([b.fadd, b.fsub, b.fmul])
            floats.append(op(rng.choice(floats), rng.choice(floats)))
            if rng.random() < 0.3:
                floats.append(b.fneg(rng.choice(floats)))
        elif kind == 9 and floats:
            f = rng.choice(floats)
            den = b.fadd(b.fmul(f, f), b.f64(1.0))
            floats.append(b.fdiv(rng.choice(floats), den))
            bools.append(
                b.fcmp(FCmpPred.OLT, floats[-1], b.f64(1e6))
            )
            ints.append(b.zext(bools[-1], I32))
        else:
            ints.append(b.add(rng.choice(ints), b.i32(rng.randrange(7))))
    if floats:
        idx = b.and_(rng.choice(ints), b.i32(7))
        b.store(rng.choice(floats), b.gep(fbuf, idx, 8))
    b.store(b.xor(rng.choice(ints), rng.choice(ints)), acc_slot)
    b.store(b.add(i, b.i32(1)), i_slot)
    b.br(loop)

    b.set_block(done)
    b.ret(b.load(I32, acc_slot))
    return module


@pytest.mark.parametrize("seed", range(8))
def test_random_programs_fused_identical(seed):
    module = build_random_module(seed)
    plain, plan = mine_plan(module)
    # Random straight-line bodies of this size must yield fusible sites —
    # otherwise the test exercises nothing.
    assert plan.site_count > 0
    for config in CONFIGS:
        result = interpreter_for(module, config, plan).run("main")
        assert_invisible(module, plain, result)


# -- nested calls and faults across the whole matrix --------------------------
#: Recursion keeps ``fib`` and ``probe`` from being inlined, so blocks of
#: several functions interleave and sampler ticks cross call boundaries.
NESTED_SOURCE = """
int data[16];
int leaf(int x, int k) { return data[(x + k) & 15] * 3 + x; }
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int probe(int i, int depth) {
    if (depth > 0) return probe(i, depth - 1) + 1;
    return data[i] * 5 + i;
}
int mid(int x) {
    int s = 0;
    for (int k = 0; k < 4; k++) s += leaf(x, k) ^ k;
    return s + fib(x & 7);
}
int main() {
    int scale = dataset_size();
    for (int i = 0; i < 16; i++) data[i] = i * 7 - 20;
    int acc = 0;
    for (int i = 0; i < 40; i++) {
        acc += mid(i) + probe((i & 15) * scale, 3);
        if (acc > 100000) acc -= 99991;
    }
    print_i32(acc);
    return acc & 255;
}
"""


@pytest.fixture(scope="module")
def nested():
    """The nested-call module and a plan mined from its safe run."""
    from repro.frontend import compile_source

    module = compile_source(NESTED_SOURCE, "nested").module
    plain, plan = mine_plan(module, dataset_size=1)
    assert plan.site_count > 0
    assert {"fib", "probe"} <= {k[0] for k in plain.profile.blocks}
    return module, plain, plan


@pytest.mark.parametrize("config", CONFIGS)
def test_nested_calls_identical_in_every_config(nested, config):
    module, plain, plan = nested
    interp = interpreter_for(module, config, plan, dataset_size=1)
    assert_invisible(module, plain, interp.run("main"))
    if interp.sampler is not None:
        # Ticks land in callees as well as in main.
        assert {"main", "fib"} <= {f for f, _ in interp.sampler.samples}


def _vm_error(module, config, plan, **interp_kwargs) -> str:
    with pytest.raises(VMError) as exc:
        interpreter_for(module, config, plan, **interp_kwargs).run("main")
    return str(exc.value)


@pytest.mark.parametrize("config", CONFIGS)
def test_step_limit_message_identical_in_every_config(nested, config):
    module, _, plan = nested
    # These limits run out in main, fib and probe respectively; every config
    # must run out at the same block.
    for limit, fname in ((50, "main"), (274, "fib"), (281, "probe")):
        expected = _vm_error(
            module, "plain", plan, dataset_size=1, max_steps=limit
        )
        assert expected == f"step limit exceeded ({limit}) in {fname}"
        assert (
            _vm_error(module, config, plan, dataset_size=1, max_steps=limit)
            == expected
        )


@pytest.mark.parametrize("config", CONFIGS)
def test_memory_fault_message_identical_in_every_config(nested, config):
    module, _, plan = nested
    # scale * 4 bytes past the 4 MiB image: the load inside the innermost
    # probe() frame faults on the second loop iteration.
    expected = _vm_error(module, "plain", plan, dataset_size=3_000_000)
    assert expected.startswith("probe: ")
    assert _vm_error(module, config, plan, dataset_size=3_000_000) == expected


@pytest.mark.parametrize("interval", [1, 3, 64])
def test_fused_sequences_span_sampler_boundaries(interval):
    """Fused sites execute across sampler ticks without bending accounting.

    With interval=1 every block entry ticks, so every fused sequence runs
    immediately after a tick; odd intervals put ticks mid-loop between
    blocks that both contain fused sites.
    """
    module = build_random_module(3)
    plain, fused, plan = run_both(module, sample_interval=interval)
    assert plan.site_count > 0
    assert_invisible(module, plain, fused)


# -- structural: matcher barriers -------------------------------------------
def _straightline_module(opcodes_builder) -> Module:
    module = Module("straight")
    func = module.declare_function("main", I32, [])
    entry = func.add_block("entry")
    b = IRBuilder(entry)
    opcodes_builder(b)
    return module


def test_matcher_sites_do_not_overlap():
    module = _straightline_module(
        lambda b: b.ret(
            b.add(b.add(b.add(b.add(b.i32(1), b.i32(2)), b.i32(3)), b.i32(4)), b.i32(5))
        )
    )
    plan = build_fusion_plan(module, [("add", "add")])
    entry = module.function("main").entry
    sites = plan.sites_for(entry)
    # Four adds support two non-overlapping add+add sites, not three.
    assert [s.start for s in sites] == [0, 2]
    assert all(s.length == 2 for s in sites)


def test_matcher_excluded_sequences_dropped():
    module = build_random_module(0)
    plan = build_fusion_plan(
        module,
        [("custom", "add"), ("call", "load"), ("add",), ("add", "add")],
    )
    # custom/call sequences and the length-1 sequence are all rejected.
    assert plan.sequences == (("add", "add"),)


def test_matcher_never_spans_custom():
    """A CUSTOM instruction is a hard barrier for site matching."""

    def build(b):
        x = b.add(b.i32(1), b.i32(2))
        y = b.add(x, b.i32(3))
        b.ret(b.add(y, b.i32(4)))

    module = _straightline_module(build)
    entry = module.function("main").entry
    # Splice a CUSTOM between the first and second add, patcher-style.
    custom = Instruction(
        Opcode.CUSTOM, I32, [entry.instructions[0]], "c", custom_id=7
    )
    entry.insert(1, custom)
    plan = build_fusion_plan(module, [("add", "add"), ("add", "add", "add")])
    starts = {s.start for s in plan.sites_for(entry)}
    # Only the adds *after* the custom are adjacent now: positions 2,3.
    assert starts == {2}


def test_matcher_never_fuses_phis_or_terminators():
    module = build_random_module(1)
    for func in module.defined_functions():
        for block in func.blocks:
            plan = build_fusion_plan(
                module, [(i.opcode.value,) * 2 for i in block.instructions]
            )
            for sites in plan.sites_by_block.values():
                for site in sites:
                    assert not any(
                        op in FUSION_EXCLUDED for op in site.sequence
                    )


# -- structural: codegen coverage -------------------------------------------
def test_every_fusible_opcode_class_fuses():
    """One straight-line block exercising every fusible opcode kind."""

    def build(b):
        slot = b.alloca(I64)
        a = b.add(b.i32(7), b.i32(35))
        s = b.sub(a, b.i32(3))
        m = b.mul(s, s)
        d = b.sdiv(m, b.i32(5))
        r = b.srem(d, b.i32(97))
        sh = b.shl(r, b.i32(2))
        lr = b.lshr(sh, b.i32(1))
        ar = b.ashr(lr, b.i32(1))
        w = b.xor(b.or_(b.and_(ar, b.i32(255)), b.i32(8)), b.i32(3))
        c = b.icmp(ICmpPred.ULT, w, b.i32(100))
        sel = b.select(c, w, b.i32(41))
        wide = b.sext(sel, I64)
        b.store(wide, slot)
        back = b.load(I64, slot)
        nar = b.trunc(back, I32)
        f = b.sitofp(nar, F64)
        g = b.fneg(b.fmul(b.fadd(f, b.f64(1.5)), b.f64(2.0)))
        h = b.fdiv(b.fsub(g, b.f64(1.0)), b.f64(0.0))  # signed-inf path
        bad = b.fcmp(FCmpPred.OLT, h, b.f64(0.0))
        b.ret(b.add(b.zext(bad, I32), nar))

    module = _straightline_module(build)
    entry = module.function("main").entry
    ops = tuple(i.opcode.value for i in entry.instructions[:-1])
    # Fuse the entire straight-line body as one superinstruction each of
    # lengths 2..4 would; use maximal coverage with one long sequence.
    plain = Interpreter(module).run("main")
    plan = build_fusion_plan(module, [ops])
    assert plan.site_count == 1
    fused = Interpreter(module, fusion=plan).run("main")
    assert_invisible(module, plain, fused)


def test_trap_parity_division_by_zero():
    def build(b):
        x = b.add(b.i32(5), b.i32(1))
        b.ret(b.sdiv(x, b.sub(b.i32(3), b.i32(3))))

    module = _straightline_module(build)
    with pytest.raises(VMError) as plain_exc:
        Interpreter(module).run("main")
    plan = build_fusion_plan(
        module,
        [
            tuple(
                i.opcode.value
                for i in module.function("main").entry.instructions[:-1]
            )
        ],
    )
    assert plan.site_count == 1
    with pytest.raises(VMError) as fused_exc:
        Interpreter(module, fusion=plan).run("main")
    assert str(fused_exc.value) == str(plain_exc.value)


def test_global_operands_bind_addresses():
    module = Module("g")
    gv = module.add_global("table", I32, 4, initializer=[11, 22, 33, 44])
    func = module.declare_function("main", I32, [])
    b = IRBuilder(func.add_block("entry"))
    p = b.gep(gv, b.i32(2), 4)
    v = b.load(I32, p)
    b.ret(b.add(v, b.i32(9)))

    plain = Interpreter(module).run("main")
    plan = build_fusion_plan(module, [("gep", "load", "add")])
    assert plan.site_count == 1
    fused = Interpreter(module, fusion=plan).run("main")
    assert plain.return_value == fused.return_value == 42
    assert_invisible(module, plain, fused)


# -- the app-level loop -------------------------------------------------------
def test_compiled_app_fusion_plan_cached_and_invisible():
    from repro.apps import compile_app, get_app

    app = compile_app(get_app("sor"))
    plan = app.fusion_plan(top=DEFAULT_FUSE_TOP)
    assert plan is app.fusion_plan()  # cached, built once per CompiledApp
    assert plan.site_count > 0

    plain = app.run()
    fused = app.run(fusion=plan)
    assert_invisible(app.module, plain, fused)


def test_fusion_report_in_profile():
    from repro.obs.vmprof import profile_app

    prof = profile_app(
        "sor", sample_interval=0, calibrate=False, fuse=6
    )
    assert prof.fusion is not None
    assert prof.fusion.top == 6
    assert prof.fusion.identical
    assert prof.fusion.sites > 0
    assert prof.fusion.dispatches_removed > 0
    assert prof.fusion.sequences
