// Timing decorators installed through the library's factory seams.
//
// TimedController wraps an atm::PortController and TimedPolicy a
// tcp::QueuePolicy. Each forwards every virtual call to the wrapped
// object unchanged and adds the call's steady_clock duration to a
// CallStats owned by the benchmark, so a traced run reports controller
// and queue-policy time without any probe inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "atm/port_controller.h"
#include "tcp/queue_policy.h"
#include "tcp/tcp_network.h"
#include "topo/abr_network.h"

namespace phantom::e2ebench {

[[nodiscard]] inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Calls made through one seam and the raw time spent in them. The
/// raw time includes one clock read per call; the report subtracts the
/// calibrated clock cost.
struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

class TimedCall {
 public:
  explicit TimedCall(CallStats& stats) : stats_{&stats}, t0_{steady_ns()} {}
  ~TimedCall() {
    stats_->ns += steady_ns() - t0_;
    ++stats_->calls;
  }
  TimedCall(const TimedCall&) = delete;
  TimedCall& operator=(const TimedCall&) = delete;

 private:
  CallStats* stats_;
  std::uint64_t t0_;
};

class TimedController final : public atm::PortController {
 public:
  TimedController(std::unique_ptr<atm::PortController> inner, CallStats& stats)
      : inner_{std::move(inner)}, stats_{&stats} {}

  /// The wrapped controller. PortController::set_event_log is not
  /// virtual, so whoever attaches an event log must also attach it here
  /// or the wrapped controller's rate updates drop out of the log.
  [[nodiscard]] atm::PortController& inner() { return *inner_; }

  void on_cell_accepted(const atm::Cell& cell, std::size_t queue_len) override {
    TimedCall t{*stats_};
    inner_->on_cell_accepted(cell, queue_len);
  }
  void on_cell_dropped(const atm::Cell& cell) override {
    TimedCall t{*stats_};
    inner_->on_cell_dropped(cell);
  }
  void on_cell_transmitted(const atm::Cell& cell) override {
    TimedCall t{*stats_};
    inner_->on_cell_transmitted(cell);
  }
  void on_forward_rm(atm::Cell& cell, std::size_t queue_len) override {
    TimedCall t{*stats_};
    inner_->on_forward_rm(cell, queue_len);
  }
  void on_backward_rm(atm::Cell& cell, std::size_t queue_len) override {
    TimedCall t{*stats_};
    inner_->on_backward_rm(cell, queue_len);
  }
  void reset() override {
    TimedCall t{*stats_};
    inner_->reset();
  }
  void warm_restart() override {
    TimedCall t{*stats_};
    inner_->warm_restart();
  }
  [[nodiscard]] const atm::WarmStartAudit* warm_audit() const override {
    TimedCall t{*stats_};
    return inner_->warm_audit();
  }
  void vc_expired(int vc) override {
    TimedCall t{*stats_};
    inner_->vc_expired(vc);
  }
  [[nodiscard]] bool mark_efci(std::size_t queue_len) const override {
    TimedCall t{*stats_};
    return inner_->mark_efci(queue_len);
  }
  [[nodiscard]] sim::Rate fair_share() const override {
    TimedCall t{*stats_};
    return inner_->fair_share();
  }
  [[nodiscard]] std::string name() const override {
    TimedCall t{*stats_};
    return inner_->name();
  }
  void register_metrics(obs::Registry& reg,
                        const std::string& prefix) override {
    TimedCall t{*stats_};
    inner_->register_metrics(reg, prefix);
  }

 private:
  std::unique_ptr<atm::PortController> inner_;
  CallStats* stats_;
};

class TimedPolicy final : public tcp::QueuePolicy {
 public:
  TimedPolicy(std::unique_ptr<tcp::QueuePolicy> inner, CallStats& stats)
      : inner_{std::move(inner)}, stats_{&stats} {}

  tcp::Verdict on_arrival(const tcp::Packet& packet, std::size_t queue_len,
                          std::size_t queue_limit) override {
    TimedCall t{*stats_};
    return inner_->on_arrival(packet, queue_len, queue_limit);
  }
  void on_overflow(const tcp::Packet& packet) override {
    TimedCall t{*stats_};
    inner_->on_overflow(packet);
  }
  [[nodiscard]] sim::Rate fair_share() const override {
    TimedCall t{*stats_};
    return inner_->fair_share();
  }
  [[nodiscard]] std::string name() const override {
    TimedCall t{*stats_};
    return inner_->name();
  }

 private:
  std::unique_ptr<tcp::QueuePolicy> inner_;
  CallStats* stats_;
};

/// `factory` with every controller it builds wrapped in a
/// TimedController reporting to `stats` (which must outlive the
/// controllers).
[[nodiscard]] inline topo::ControllerFactory timed(topo::ControllerFactory factory,
                                                   CallStats& stats) {
  return [factory = std::move(factory), &stats](sim::Simulator& sim,
                                                sim::Rate rate) {
    return std::make_unique<TimedController>(factory(sim, rate), stats);
  };
}

[[nodiscard]] inline tcp::PolicyFactory timed(tcp::PolicyFactory factory,
                                              CallStats& stats) {
  return [factory = std::move(factory), &stats](sim::Simulator& sim,
                                                sim::Rate rate) {
    return std::make_unique<TimedPolicy>(factory(sim, rate), stats);
  };
}

/// Attaches `log` to the controllers wrapped inside every TimedController
/// of `net`, with the node/port ids AbrNetwork::attach_event_log gives
/// their ports (see TimedController::inner).
inline void attach_log_to_wrapped(topo::AbrNetwork& net, obs::EventLog* log) {
  for (std::size_t s = 0; s < net.num_switches(); ++s) {
    atm::Switch& sw = net.node(s);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      if (auto* t = dynamic_cast<TimedController*>(&sw.port(p).controller())) {
        t->inner().set_event_log(log, static_cast<int>(s), static_cast<int>(p));
      }
    }
  }
}

}  // namespace phantom::e2ebench
