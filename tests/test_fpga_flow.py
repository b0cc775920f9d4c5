"""Tests for the FPGA CAD tool flow: syntax, synthesis, map, place, route,
bitgen, and the calibrated timing model."""

import pytest

from repro.fpga import (
    CadToolFlow,
    CadTimingModel,
    Mapper,
    Placer,
    Router,
    VIRTEX4_FX100,
    VhdlSyntaxChecker,
    VhdlSyntaxError,
)
from repro.fpga.device import VIRTEX4_FX20
from repro.fpga.placer import PlacementError
from repro.ise import CandidateSearch

from conftest import outputs_of_fresh_processes


@pytest.fixture(scope="module")
def implementation(request):
    """One full CAD implementation of the FP kernel's best candidate."""
    from repro.frontend import compile_source
    from repro.vm import Interpreter

    src = """
double a[64]; double b[64]; double c[64];
int main() {
    for (int i = 0; i < 64; i++) { a[i] = 0.5 * (double)i; b[i] = 1.5; }
    double s = 0.0;
    for (int it = 0; it < 10; it++)
        for (int i = 0; i < 63; i++) {
            c[i] = a[i] * b[i] + a[i + 1] * 0.25 - b[i] / 3.0;
            s += c[i] * c[i];
        }
    print_f64(s);
    return 0;
}
"""
    comp = compile_source(src, "cadkernel")
    result = Interpreter(comp.module).run("main")
    search = CandidateSearch().run(comp.module, result.profile)
    flow = CadToolFlow()
    return flow.implement(search.selected[0].candidate)


class TestSyntaxChecker:
    GOOD = """
library ieee;
use ieee.std_logic_1164.all;
entity tiny is
  port (
    clk : in std_logic;
    a : in std_logic_vector(31 downto 0);
    q : out std_logic_vector(31 downto 0)
  );
end entity tiny;
architecture structural of tiny is
  component add_i32
    port (
      clk : in std_logic;
      a0 : in std_logic_vector(31 downto 0);
      a1 : in std_logic_vector(31 downto 0);
      q : out std_logic_vector(31 downto 0)
    );
  end component;
  signal s0 : std_logic_vector(31 downto 0);
  signal k0 : std_logic_vector(31 downto 0) := x"0000002a";
begin
  u0 : add_i32
    port map (
      clk => clk,
      a0 => a,
      a1 => k0,
      q => s0
    );
  q <= s0;
end architecture structural;
"""

    def test_accepts_wellformed(self):
        design = VhdlSyntaxChecker().check(self.GOOD)
        assert design.entity == "tiny"
        assert len(design.instances) == 1
        assert design.signals == {"s0": 32, "k0": 32}

    @pytest.mark.parametrize(
        "mutation,pattern",
        [
            (("entity tiny is", "entity oops is"), "does not match"),
            (("a1 => k0", "a1 => nosuch"), "not a signal"),
            (("u0 : add_i32", "u0 : mystery"), "undeclared component"),
            (('x"0000002a"', 'x"2a"'), "does not match width"),
            (("q <= s0;", "q <= phantom;"), "unknown source"),
            (("a0 => a,\n", ""), "unconnected"),
        ],
    )
    def test_rejects_mutations(self, mutation, pattern):
        old, new = mutation
        bad = self.GOOD.replace(old, new)
        assert bad != self.GOOD
        with pytest.raises(VhdlSyntaxError, match=pattern):
            VhdlSyntaxChecker().check(bad)


class TestFlowArtifacts:
    def test_mapping_packs_primitives(self, implementation):
        mapped = implementation.mapped
        assert mapped.cell_count > 0
        assert mapped.lut_count > 0
        # LUT+FF pairs mean fewer cells than primitives
        total_prims = sum(len(c.members) for c in mapped.cells)
        assert total_prims >= mapped.cell_count

    def test_placement_legal(self, implementation):
        region = VIRTEX4_FX100.region
        placement = implementation.placement
        mapped = implementation.mapped
        assert len(placement.locations) == mapped.cell_count
        for col, row in placement.locations.values():
            assert 0 <= col < region.cols
            assert 0 <= row < region.rows

    def test_placement_improves_wirelength(self, implementation):
        p = implementation.placement
        assert p.final_wirelength <= p.initial_wirelength
        assert p.moves_accepted > 0

    def test_routing_feasible(self, implementation):
        routed = implementation.routed
        assert routed.max_channel_utilization < 1.5
        assert routed.total_wirelength > 0
        assert routed.critical_delay_ns > 0

    def test_bitstream_properties(self, implementation):
        bs = implementation.bitstream
        device = VIRTEX4_FX100
        assert bs.column_count == device.region.cols
        assert bs.frame_count == device.region.cols * device.frames_per_clb_col
        assert bs.size_bytes > 1_000_000  # megabyte-scale partial bitstream
        assert bs.data.startswith(b"\xaa\x99\x55\x66")

    def test_bitstream_deterministic(self, implementation):
        from repro.fpga.bitgen import BitstreamGenerator

        again = BitstreamGenerator().generate(
            implementation.vhdl.entity_name,
            implementation.mapped,
            implementation.placement,
            VIRTEX4_FX100,
        )
        assert again.checksum == implementation.bitstream.checksum

    def test_design_too_large_rejected(self):
        from repro.fpga.techmap import MappedCell, MappedDesign

        region = VIRTEX4_FX20.region
        too_many = region.cell_capacity + 1
        design = MappedDesign(
            cells=[MappedCell(i, "SLICE") for i in range(too_many)],
            nets=[],
            lut_count=too_many,
            ff_count=0,
            dsp_count=0,
            bram_count=0,
        )
        with pytest.raises(PlacementError):
            Placer().place(design, region)


class TestTimingModel:
    def test_constant_stage_means_calibrated(self):
        model = CadTimingModel()
        times = [
            model.stage_times(f"entity_{i}", lut_count=30) for i in range(60)
        ]

        def mean(attr):
            return sum(getattr(t, attr) for t in times) / len(times)

        assert mean("c2v") == pytest.approx(3.22, abs=0.1)
        assert mean("syn") == pytest.approx(4.22, abs=0.1)
        assert mean("xst") == pytest.approx(10.60, rel=0.05)
        assert mean("tra") == pytest.approx(8.99, rel=0.1)
        assert mean("bitgen") == pytest.approx(151.0, rel=0.02)

    def test_map_range_respected(self):
        model = CadTimingModel()
        small = model.stage_times("tiny", lut_count=4)
        large = model.stage_times("huge", lut_count=5000, dsp_count=8)
        assert small.map < 60
        assert large.map <= model.map_max * 1.05
        assert large.map > small.map

    def test_par_to_map_ratio_range(self):
        model = CadTimingModel()
        for luts in (4, 60, 200, 400):
            t = model.stage_times(f"e{luts}", lut_count=luts)
            ratio = t.par / t.map
            assert 1.2 <= ratio <= 2.6

    def test_bitgen_dominates_constant_cost(self):
        model = CadTimingModel()
        t = model.stage_times("x", lut_count=10)
        assert t.bitgen / t.constant_sum > 0.8

    def test_smaller_device_faster_constants(self):
        big = CadTimingModel(device=VIRTEX4_FX100)
        small = CadTimingModel(device=VIRTEX4_FX20)
        tb = big.stage_times("e", lut_count=10)
        ts = small.stage_times("e", lut_count=10)
        assert ts.bitgen < tb.bitgen
        assert ts.syn < tb.syn

    def test_full_bitstream_cheaper_than_partial(self):
        model = CadTimingModel()
        t = model.stage_times("e", lut_count=10)
        assert model.full_bitstream_seconds() < t.bitgen

    def test_deterministic_per_entity(self):
        model = CadTimingModel()
        assert model.stage_times("same", 50) == model.stage_times("same", 50)

    def test_scaled_times(self):
        model = CadTimingModel()
        t = model.stage_times("e", 50)
        half = t.scaled(0.5)
        assert half.total == pytest.approx(0.5 * t.total)


_CROSS_PROCESS_SCRIPT = """
from repro.apps import compile_app, get_app
from repro.core.asip_sp import AsipSpecializationProcess
from repro.ise import CandidateSearch
from repro.ise.pruning import NO_PRUNING

def names(values):
    return ",".join(getattr(v, "name", "?") for v in values)

spec = get_app("fft")
compiled = compile_app(spec)
train = compiled.run(spec.train).profile
search = CandidateSearch(pruning=NO_PRUNING, min_total_cycles_saved=0.0)
result = search.run(compiled.module, train)
for est in result.selected + result.rejected:
    cand = est.candidate
    print(cand.key, names(cand.inputs), names(cand.outputs))
for ci in AsipSpecializationProcess().run(compiled.module, train).implementations:
    impl = ci.implementation
    print(ci.estimate.candidate.key, names(ci.estimate.candidate.inputs),
          impl.bitstream.checksum, impl.placement.final_wirelength)
"""


class TestCrossProcessDeterminism:
    def test_ports_bitstreams_and_wirelengths_identical_across_processes(self):
        """The same app implemented in separate processes gives the same
        port order, bitstream checksums and placement wirelengths."""
        outputs = outputs_of_fresh_processes(_CROSS_PROCESS_SCRIPT)
        assert "for.body" in outputs[0]
        assert outputs[1:] == outputs[:1] * (len(outputs) - 1)
