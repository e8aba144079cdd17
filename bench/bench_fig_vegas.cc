// Vegas unfairness and its repair by Phantom's router mechanisms.
//
// The paper's §4 argues that end-host-only schemes cannot guarantee
// fairness: "when two sources that use Vegas get different window
// sizes ... there is no mechanism that would balance them", and mixing
// algorithms is worse (Reno fills the queue that Vegas tries to keep
// empty, starving it). Selective Discard equalizes both cases from the
// router side using only the CR header field.
#include "bench_util.h"

#include "tcp/vegas.h"

using namespace phantom;
using sim::Rate;
using sim::Time;

namespace {

struct Shares {
  double flow0 = 0, flow1 = 0;
};

Shares run(tcp::SenderKind first, tcp::SenderKind second,
           tcp::PolicyFactory policy) {
  sim::Simulator sim;
  tcp::TcpNetwork net{sim};
  const auto r = net.add_router("r0");
  tcp::TcpTrunkOptions opts;
  opts.queue_limit = 60;
  opts.policy = std::move(policy);
  const auto s = net.add_sink_node(r, opts);
  tcp::FlowOptions f0;
  f0.kind = first;
  tcp::FlowOptions f1;
  f1.kind = second;
  net.add_flow(r, {}, s, f0);
  net.add_flow(r, {}, s, f1);
  net.source(0).start(Time::zero());
  net.source(1).start(Time::sec(1));  // latecomer
  sim.run_until(Time::sec(4));
  std::vector<std::int64_t> base{net.delivered_bytes(0),
                                 net.delivered_bytes(1)};
  sim.run_until(Time::sec(14));
  Shares out;
  out.flow0 = static_cast<double>(net.delivered_bytes(0) - base[0]) * 8 /
              10.0 / 1e6;
  out.flow1 = static_cast<double>(net.delivered_bytes(1) - base[1]) * 8 /
              10.0 / 1e6;
  return out;
}

tcp::PolicyFactory discard() {
  return [](sim::Simulator& sim, Rate rate) {
    return std::make_unique<tcp::SelectiveDiscardPolicy>(sim, rate, 10.0);
  };
}

void row(exp::Table& t, const char* scenario, const Shares& plain,
         const Shares& fixed) {
  const double j_plain =
      stats::jain_index(std::vector<double>{plain.flow0, plain.flow1});
  const double j_fixed =
      stats::jain_index(std::vector<double>{fixed.flow0, fixed.flow1});
  t.add_row({scenario,
             exp::Table::num(plain.flow0) + " / " + exp::Table::num(plain.flow1),
             exp::Table::num(j_plain, 3),
             exp::Table::num(fixed.flow0) + " / " + exp::Table::num(fixed.flow1),
             exp::Table::num(j_fixed, 3)});
}

}  // namespace

int main() {
  exp::print_header("Vegas (extension of §4's discussion)",
                    "end-host-only fairness failures vs Selective Discard");
  exp::Table t{{"flows (first / latecomer)", "drop-tail (Mb/s)", "Jain",
                "+ selective discard", "Jain"}};
  using K = tcp::SenderKind;
  row(t, "Vegas / Vegas", run(K::kVegas, K::kVegas, nullptr),
      run(K::kVegas, K::kVegas, discard()));
  row(t, "Reno / Vegas", run(K::kReno, K::kVegas, nullptr),
      run(K::kReno, K::kVegas, discard()));
  t.print();
  std::printf(
      "\nexpected shapes: Vegas/Vegas splits unevenly and never rebalances\n"
      "(Vegas holds the queue below the discard gate, so the router has\n"
      "nothing to fix — and nothing to break); Reno fills the queue Vegas\n"
      "tries to keep empty and starves it, and Selective Discard narrows\n"
      "that gap substantially without touching the end hosts.\n");

  const Shares rt = run(K::kReno, K::kTahoe, nullptr);
  std::printf(
      "\nReno vs Tahoe under drop-tail (no policy): %.2f / %.2f Mb/s —\n"
      "fast recovery is why Reno displaced Tahoe.\n",
      rt.flow0, rt.flow1);
  return 0;
}
