// Ablations of Phantom's design choices (DESIGN.md §3):
//  * adaptive gain vs fixed gain — steady-state MACR oscillation;
//  * target utilization u — goodput vs drain speed;
//  * measurement interval Δt — convergence speed vs noise;
//  * TCP utilization factor and strict-vs-policing discard.
#include "bench_util.h"

using namespace phantom;
using namespace phantom::bench;
using sim::Rate;
using sim::Time;

namespace {

struct AbrOutcome {
  double goodput_per_session = 0;
  double macr_stddev_mbps = 0;  // steady-state oscillation
  std::size_t max_queue = 0;
  double settle_ms = 0;
};

AbrOutcome run_abr(core::PhantomConfig cfg, int n = 5) {
  sim::Simulator sim;
  topo::AbrNetwork net{sim, exp::make_phantom_factory(cfg)};
  const auto sw = net.add_switch("sw");
  const auto dest = net.add_destination(sw, {});
  for (int i = 0; i < n; ++i) net.add_session(sw, {}, dest);
  sim::Trace macr;
  net.dest_port(dest).controller().set_rate_trace(&macr, sim.now());
  exp::GoodputProbe probe{sim, net};
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(300));
  probe.mark();
  sim.run_until(Time::ms(500));
  AbrOutcome out;
  for (const double r : probe.rates_mbps()) out.goodput_per_session += r;
  out.goodput_per_session /= n;
  const auto tail =
      stats::summarize(macr.samples(), Time::ms(300), Time::ms(500));
  out.macr_stddev_mbps = tail.stddev / 1e6;
  out.max_queue = net.dest_port(dest).max_queue_length();
  const double ideal = cfg.utilization * 150.0 / (n + 1);
  out.settle_ms =
      stats::convergence_time(macr.samples(), ideal * 1e6, 0.10).milliseconds();
  return out;
}

}  // namespace

int main() {
  exp::print_header("Ablation A",
                    "adaptive gain vs fixed gain (noisy on/off load)");
  {
    // The adaptive gain exists to damp measurement noise: exercise it
    // with four fast on/off sessions beside four greedy ones.
    exp::Table t{{"gain", "goodput/greedy session", "MACR stddev (steady)",
                  "max queue"}};
    for (const bool adaptive : {true, false}) {
      core::PhantomConfig cfg;
      cfg.adaptive_gain = adaptive;
      sim::Simulator sim;
      topo::AbrNetwork net{sim, exp::make_phantom_factory(cfg)};
      const auto sw = net.add_switch("sw");
      const auto dest = net.add_destination(sw, {});
      for (int i = 0; i < 8; ++i) net.add_session(sw, {}, dest);
      sim::Trace macr;
      net.dest_port(dest).controller().set_rate_trace(&macr, sim.now());
      net.start_all(Time::zero(), Time::zero());
      std::vector<std::unique_ptr<topo::OnOffDriver>> drivers;
      for (int i = 4; i < 8; ++i) {
        topo::OnOffDriver::Options opt;
        opt.on_period = Time::ms(3);
        opt.off_period = Time::ms(3);
        opt.first_toggle = Time::ms(3 + i);
        opt.exponential = true;
        drivers.push_back(std::make_unique<topo::OnOffDriver>(
            sim, net.source(static_cast<std::size_t>(i)), opt));
      }
      exp::GoodputProbe probe{sim, net};
      sim.run_until(Time::ms(300));
      probe.mark();
      sim.run_until(Time::ms(500));
      const auto rates = probe.rates_mbps();
      double greedy = 0;
      for (int i = 0; i < 4; ++i) greedy += rates[static_cast<std::size_t>(i)];
      const auto tail =
          stats::summarize(macr.samples(), Time::ms(300), Time::ms(500));
      t.add_row({adaptive ? "adaptive" : "fixed",
                 exp::Table::num(greedy / 4),
                 exp::Table::num(tail.stddev / 1e6, 3),
                 std::to_string(net.dest_port(dest).max_queue_length())});
    }
    t.print();
  }

  exp::print_header("Ablation B", "target utilization u");
  {
    exp::Table t{{"u", "goodput/session", "ideal u*C/6", "max queue"}};
    for (const double u : {0.80, 0.90, 0.95, 1.00}) {
      core::PhantomConfig cfg;
      cfg.utilization = u;
      const auto r = run_abr(cfg);
      t.add_row({exp::Table::num(u, 2), exp::Table::num(r.goodput_per_session),
                 exp::Table::num(u * 150 / 6),
                 std::to_string(r.max_queue)});
    }
    t.print();
  }

  exp::print_header("Ablation C", "measurement interval Δt");
  {
    exp::Table t{{"Δt", "goodput/session", "MACR stddev", "settle (ms)"}};
    for (const auto dt :
         {Time::us(250), Time::ms(1), Time::ms(4), Time::ms(16)}) {
      core::PhantomConfig cfg;
      cfg.interval = dt;
      const auto r = run_abr(cfg);
      t.add_row({dt.to_string(), exp::Table::num(r.goodput_per_session),
                 exp::Table::num(r.macr_stddev_mbps, 3),
                 exp::Table::num(r.settle_ms, 1)});
    }
    t.print();
  }

  exp::print_header("Ablation E", "explicit-rate mode vs binary (CI) mode");
  {
    exp::Table t{{"feedback", "goodput/session", "Jain", "max queue"}};
    for (const bool er_mode : {true, false}) {
      core::PhantomConfig cfg;
      cfg.explicit_rate_mode = er_mode;
      sim::Simulator sim;
      topo::AbrNetwork net{sim, exp::make_phantom_factory(cfg)};
      const auto sw = net.add_switch("sw");
      const auto dest = net.add_destination(sw, {});
      for (int i = 0; i < 5; ++i) net.add_session(sw, {}, dest);
      exp::GoodputProbe probe{sim, net};
      net.start_all(Time::zero(), Time::zero());
      sim.run_until(Time::ms(400));
      probe.mark();
      sim.run_until(Time::ms(700));
      const auto rates = probe.rates_mbps();
      double mean = 0;
      for (const double r : rates) mean += r;
      t.add_row({er_mode ? "explicit rate (ER)" : "binary (EFCI/CI)",
                 exp::Table::num(mean / 5),
                 exp::Table::num(stats::jain_index(rates), 3),
                 std::to_string(net.dest_port(dest).max_queue_length())});
    }
    t.print();
  }

  exp::print_header("Ablation D", "TCP: utilization factor & discard mode");
  {
    exp::Table t{{"mechanism", "total goodput", "Jain", "mean queue"}};
    for (const double uf : {1.1, 2.0, 5.0, 10.0}) {
      const TcpRun r =
          run_tcp_bottleneck([uf](sim::Simulator& sim, Rate rate) {
            return std::make_unique<tcp::SelectiveDiscardPolicy>(sim, rate,
                                                                 uf);
          });
      t.add_row({"police uf=" + exp::Table::num(uf, 1),
                 exp::Table::num(r.total), exp::Table::num(r.jain, 3),
                 exp::Table::num(r.mean_queue, 1)});
    }
    const TcpRun strict =
        run_tcp_bottleneck([](sim::Simulator& sim, Rate rate) {
          return std::make_unique<tcp::SelectiveDiscardPolicy>(
              sim, rate, tcp::kTcpUtilizationFactor,
              tcp::tcp_default_phantom_config(), tcp::DiscardMode::kStrict);
        });
    t.add_row({"strict (Fig 18 literal)", exp::Table::num(strict.total),
               exp::Table::num(strict.jain, 3),
               exp::Table::num(strict.mean_queue, 1)});
    const TcpRun droptail = run_tcp_bottleneck(nullptr);
    t.add_row({"droptail (baseline)", exp::Table::num(droptail.total),
               exp::Table::num(droptail.jain, 3),
               exp::Table::num(droptail.mean_queue, 1)});
    t.print();
  }
  return 0;
}
