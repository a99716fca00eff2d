// Bring your own kernel: define a function with the IrBuilder API, wrap it
// in a Workload, and let one Explorer request if-convert it, identify
// extensions, rewrite, and prove the transformed program equivalent on
// concrete inputs.
//
// The kernel here is an alpha-blend with saturation:
//   out[i] = clamp((a[i] * alpha + b[i] * (256 - alpha)) >> 8, 0, 255)
#include <iostream>
#include <memory>

#include "api/explorer.hpp"
#include "interp/interpreter.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "workloads/util.hpp"

using namespace isex;

int main() {
  constexpr int kN = 32;

  auto module = std::make_unique<Module>("blend");
  const auto a_data = random_samples(kN, 0, 255, 1);
  const auto b_data = random_samples(kN, 0, 255, 2);
  const std::uint32_t a_base = module->add_segment("a", kN, std::vector<std::int32_t>(a_data));
  const std::uint32_t b_base = module->add_segment("b", kN, std::vector<std::int32_t>(b_data));
  const std::uint32_t out_base = module->add_segment("out", kN);

  IrBuilder b(*module, "alpha_blend", 2);  // (n, alpha)
  CountedLoop loop = begin_counted_loop(b, b.param(0));
  enter_loop_body(b, loop);
  const ValueId av = b.load(b.add(b.konst(a_base), loop.index));
  const ValueId bv = b.load(b.add(b.konst(b_base), loop.index));
  const ValueId alpha = b.param(1);
  const ValueId beta = b.sub(b.konst(256), alpha);
  const ValueId mix =
      b.shr_s(b.add(b.mul(av, alpha), b.mul(bv, beta)), b.konst(8));
  const ValueId lo = b.select(b.lt_s(mix, b.konst(0)), b.konst(0), mix);
  const ValueId hi = b.select(b.gt_s(lo, b.konst(255)), b.konst(255), lo);
  b.store(b.add(b.konst(out_base), loop.index), hi);
  end_counted_loop(b, loop, {});
  b.ret(b.konst(0));
  verify_module(*module);

  // Reference outputs from one interpreted run of the untransformed kernel.
  const std::vector<std::int32_t> args{kN, 96};
  std::vector<std::int32_t> expected;
  {
    Memory mem(*module);
    Interpreter interp(*module, mem);
    interp.run(*module->find_function("alpha_blend"), args);
    expected = mem.read_words(out_base, kN);
  }

  const auto read_out = [out_base](const Module&, const Memory& mem) {
    return mem.read_words(out_base, kN);
  };
  Workload w("alpha_blend", std::move(module), "alpha_blend", args, read_out, expected);

  // Preprocess, profile, identify, select, rewrite, validate — one request.
  const Explorer explorer;
  ExplorationRequest request;
  request.scheme = "iterative";
  request.constraints.max_inputs = 4;
  request.constraints.max_outputs = 1;
  request.num_instructions = 2;
  request.emission.verify_rewrites = true;
  const ExplorationReport report = explorer.run(w, request);

  std::cout << "custom kernel 'alpha_blend'\n";
  TextTable t({"metric", "value"});
  t.add_row({"selected instructions", TextTable::num(static_cast<int>(report.afus.size()))});
  t.add_row({"AFU area (MAC equiv)", TextTable::num(report.afu_area_macs, 3)});
  t.add_row({"cycles before", TextTable::num(report.validation.cycles_before)});
  t.add_row({"cycles after", TextTable::num(report.validation.cycles_after)});
  t.add_row({"speedup", TextTable::num(report.validation.measured_speedup, 3) + "x"});
  t.add_row({"outputs bit-exact", report.validation.bit_exact ? "yes" : "NO"});
  t.print(std::cout);

  std::cout << "\nrewritten function:\n"
            << function_to_string(w.module(), w.entry());
  return report.validation.bit_exact ? 0 : 1;
}
