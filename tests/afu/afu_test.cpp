#include <gtest/gtest.h>

#include <ostream>

#include "afu/afu_builder.hpp"
#include "afu/rewrite.hpp"
#include "afu/verilog.hpp"
#include "core/iterative_select.hpp"
#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "workloads/workload.hpp"

namespace isex {
namespace {

const LatencyModel kLat = LatencyModel::standard_018um();

Constraints cons(int nin, int nout) {
  Constraints c;
  c.max_inputs = nin;
  c.max_outputs = nout;
  return c;
}

TEST(AfuBuilder, SnapshotsSemanticsOfSimpleCut) {
  // f(a, b) = (a + b) * (a - 7); cut = all three ops.
  Module m("t");
  IrBuilder b(m, "f", 2);
  const ValueId s = b.add(b.param(0), b.param(1));
  const ValueId d = b.sub(b.param(0), b.konst(7));
  const ValueId p = b.mul(s, d);
  b.ret(p);
  verify_function(m, b.function());

  const Dfg g = Dfg::from_block(m, b.function(), b.function().entry());
  BitVector cut(g.num_nodes());
  for (NodeId n : g.candidates()) cut.set(n.index);

  const AfuSpec spec = build_afu(m, b.function(), g, cut, kLat, "mac7");
  EXPECT_EQ(spec.op.num_inputs, 2);
  EXPECT_EQ(spec.op.num_outputs(), 1);
  EXPECT_EQ(spec.member_instrs.size(), 3u);
  EXPECT_GT(spec.op.area_macs, 0.0);
  // hw: max(add, sub) + mul = 0.27 + 0.80 = 1.07 -> 2 cycles.
  EXPECT_EQ(spec.op.latency_cycles, 2);

  Memory mem(m);
  Interpreter interp(m, mem);
  // (5 + 3) * (5 - 7) = -16
  EXPECT_EQ(interp.eval_custom(spec.op, std::vector<std::int32_t>{5, 3}),
            (std::vector<std::int32_t>{-16}));
}

TEST(AfuBuilder, KonstsDeduplicatedInMicroProgram) {
  Module m("t");
  IrBuilder b(m, "f", 1);
  const ValueId x = b.add(b.param(0), b.konst(5));
  const ValueId y = b.mul(x, b.konst(5));
  b.ret(y);
  const Dfg g = Dfg::from_block(m, b.function(), b.function().entry());
  BitVector cut(g.num_nodes());
  for (NodeId n : g.candidates()) cut.set(n.index);
  const AfuSpec spec = build_afu(m, b.function(), g, cut, kLat, "k5");
  int konsts = 0;
  for (const auto& micro : spec.op.micros) {
    if (micro.op == Opcode::konst) ++konsts;
  }
  EXPECT_EQ(konsts, 1);
}

TEST(AfuBuilder, RejectsNonConvexCut) {
  Module m("t");
  IrBuilder b(m, "f", 2);
  const ValueId a = b.mul(b.param(0), b.param(1));
  const ValueId mid = b.load(a);  // forbidden middle node
  m.add_segment("buf", 1024);
  const ValueId z = b.add(mid, a);
  b.ret(z);
  const Dfg g = Dfg::from_block(m, b.function(), b.function().entry());
  BitVector cut(g.num_nodes());
  for (NodeId n : g.candidates()) cut.set(n.index);  // mul + add around the load
  EXPECT_THROW(build_afu(m, b.function(), g, cut, kLat, "bad"), Error);
}

struct RewriteCase {
  std::string workload;
  int nin, nout, ninstr;
  bool rom;
};

// ctest lists each case under gtest's printout of its parameter.
void PrintTo(const RewriteCase& c, std::ostream* os) {
  *os << c.workload << " " << c.nin << "/" << c.nout << " ninstr " << c.ninstr
      << (c.rom ? " rom" : "");
}

class RewriteEndToEnd : public ::testing::TestWithParam<RewriteCase> {};

TEST_P(RewriteEndToEnd, BitExactAndCyclesDropByMerit) {
  const RewriteCase& tc = GetParam();
  Workload w = [&] {
    for (Workload& cand : all_workloads()) {
      if (cand.name() == tc.workload) return std::move(cand);
    }
    ISEX_CHECK(false, "unknown workload");
  }();
  w.preprocess();

  ExecResult before;
  ASSERT_EQ(w.run(&before), w.expected_outputs());

  DfgOptions opts;
  opts.allow_rom_loads = tc.rom;
  const std::vector<Dfg> blocks = w.extract_dfgs(opts);
  const SelectionResult sel =
      select_iterative(blocks, kLat, cons(tc.nin, tc.nout), tc.ninstr);
  ASSERT_FALSE(sel.cuts.empty()) << tc.workload;

  Function& fn = *w.module().find_function(w.entry().name());
  const RewriteReport report =
      rewrite_selection(w.module(), fn, blocks, sel, kLat, tc.workload + "_ise");
  EXPECT_EQ(report.instructions_added, static_cast<int>(sel.cuts.size()));
  EXPECT_GT(report.total_area_macs, 0.0);

  ExecResult after;
  EXPECT_EQ(w.run(&after), w.expected_outputs()) << tc.workload;
  // The interpreter charges exactly sw_cycles per op and latency_cycles per
  // custom instruction, so the measured saving must equal the predicted
  // merit of the selection.
  EXPECT_NEAR(static_cast<double>(before.cycles) - static_cast<double>(after.cycles),
              sel.total_merit, 1e-6)
      << tc.workload;
  EXPECT_LT(after.instructions, before.instructions);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, RewriteEndToEnd,
    ::testing::Values(RewriteCase{"adpcmdecode", 4, 2, 4, false},
                      RewriteCase{"adpcmdecode", 3, 1, 2, false},
                      RewriteCase{"adpcmdecode", 4, 2, 4, true},  // ROM extension
                      RewriteCase{"adpcmencode", 4, 2, 4, false},
                      RewriteCase{"g721", 4, 2, 4, false},
                      RewriteCase{"gsm", 4, 2, 3, false},
                      RewriteCase{"crc32", 2, 1, 2, false},
                      RewriteCase{"sha1", 4, 2, 3, false},
                      RewriteCase{"viterbi", 4, 2, 3, false},
                      RewriteCase{"rgb2yuv", 4, 4, 3, false},
                      RewriteCase{"fir", 8, 1, 2, false},
                      RewriteCase{"sobel", 8, 2, 2, false},
                      RewriteCase{"blowfish", 4, 2, 3, false},
                      RewriteCase{"blowfish", 4, 2, 3, true},  // S-boxes as AFU ROMs
                      RewriteCase{"idct", 8, 4, 4, false}),
    [](const ::testing::TestParamInfo<RewriteCase>& info) {
      return info.param.workload + "_in" + std::to_string(info.param.nin) + "_out" +
             std::to_string(info.param.nout) + (info.param.rom ? "_rom" : "");
    });

TEST(Verilog, EmitsStructurallySoundModule) {
  Module m("t");
  IrBuilder b(m, "f", 2);
  const ValueId s = b.add(b.param(0), b.param(1));
  const ValueId p = b.mul(s, b.konst(3));
  const ValueId q = b.select(b.lt_s(p, b.konst(0)), b.konst(0), p);
  b.ret(q);
  const Dfg g = Dfg::from_block(m, b.function(), b.function().entry());
  BitVector cut(g.num_nodes());
  for (NodeId n : g.candidates()) cut.set(n.index);
  const AfuSpec spec = build_afu(m, b.function(), g, cut, kLat, "relu_mac");

  const std::string v = emit_verilog(m, spec.op);
  EXPECT_NE(v.find("module relu_mac ("), std::string::npos);
  EXPECT_NE(v.find("input  wire [31:0] in0"), std::string::npos);
  EXPECT_NE(v.find("input  wire [31:0] in1"), std::string::npos);
  EXPECT_NE(v.find("assign out0 = "), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("$signed"), std::string::npos);  // signed compare present
  // One wire per micro.
  std::size_t wires = 0;
  for (std::size_t pos = v.find("wire [31:0] t"); pos != std::string::npos;
       pos = v.find("wire [31:0] t", pos + 1)) {
    ++wires;
  }
  EXPECT_EQ(wires, spec.op.micros.size());

  const std::string c = emit_c(m, spec.op);
  EXPECT_NE(c.find("static inline void relu_mac("), std::string::npos);
  EXPECT_NE(c.find("*out0 = "), std::string::npos);
}

TEST(Verilog, EmitsRomTable) {
  Module m("t");
  m.add_segment("tbl", 4, {10, 20, 30, 40}, /*read_only=*/true);
  CustomOp op;
  op.name = "lut";
  op.num_inputs = 1;
  op.micros.push_back({Opcode::load, 0, -1, -1, 0});
  op.outputs = {1};
  const std::string v = emit_verilog(m, op);
  EXPECT_NE(v.find("function [31:0] rom_tbl;"), std::string::npos);
  EXPECT_NE(v.find("32'd2: rom_tbl = 32'h1e;"), std::string::npos);
  EXPECT_NE(v.find("rom_tbl(in0)"), std::string::npos);
}

}  // namespace
}  // namespace isex
