#include "fault/fault_injector.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

namespace phantom::fault {
namespace {

std::string format_fraction(double f) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", f);
  return buf;
}

/// A link's fault model, ready to change: every cell that departed
/// before now is judged under the model it departed under first, and
/// the link's line files its next arrival, so that a model that draws
/// random numbers judges cells at the instants it always did.
atm::LinkState& change_model(atm::LinkState& st) {
  st.settle();
  return st;
}

void check_index(std::size_t index, std::size_t count, const char* what) {
  if (index >= count) {
    throw std::out_of_range{"fault plan: no such " + std::string{what} + " " +
                            std::to_string(index) + " (network has " +
                            std::to_string(count) + ")"};
  }
}

}  // namespace

std::vector<std::shared_ptr<atm::LinkState>> FaultInjector::links_of(
    FaultTarget t) const {
  switch (t.kind) {
    case FaultTarget::Kind::kTrunk:
      check_index(t.index, net_->num_trunks(), "trunk");
      return {net_->trunk_port(t.index).link().state(),
              net_->trunk_reverse_port(t.index).link().state()};
    case FaultTarget::Kind::kDest:
      check_index(t.index, net_->num_destinations(), "dest");
      return {net_->dest_port(t.index).link().state()};
    case FaultTarget::Kind::kSession:
      throw std::invalid_argument{
          "fault plan: link fault cannot target a session"};
  }
  return {};
}

std::vector<std::shared_ptr<atm::LinkState>> FaultInjector::reverse_links_of(
    FaultTarget t) const {
  switch (t.kind) {
    case FaultTarget::Kind::kTrunk:
      check_index(t.index, net_->num_trunks(), "trunk");
      return {net_->trunk_reverse_port(t.index).link().state()};
    case FaultTarget::Kind::kDest:
      check_index(t.index, net_->num_destinations(), "dest");
      return {net_->destination(t.index).link().state()};
    case FaultTarget::Kind::kSession:
      throw std::invalid_argument{
          "fault plan: rm_blackhole cannot target a session"};
  }
  return {};
}

atm::PortController& FaultInjector::controller_of(FaultTarget t) const {
  switch (t.kind) {
    case FaultTarget::Kind::kTrunk:
      check_index(t.index, net_->num_trunks(), "trunk");
      return net_->trunk_port(t.index).controller();
    case FaultTarget::Kind::kDest:
      check_index(t.index, net_->num_destinations(), "dest");
      return net_->dest_port(t.index).controller();
    case FaultTarget::Kind::kSession:
      throw std::invalid_argument{"fault plan: restart cannot target a session"};
  }
  throw std::invalid_argument{"fault plan: bad target kind"};
}

void FaultInjector::validate(const FaultEvent& e) const {
  using K = FaultEvent::Kind;
  switch (e.kind) {
    case K::kOutage:
    case K::kFlap:
    case K::kBurst:
    case K::kRmFault:
    case K::kRmBlackhole:
    case K::kRestart: {
      // Resolve the target now: .at() throws std::out_of_range on a bad
      // index, before anything was scheduled.
      if (e.kind == K::kRestart) {
        (void)controller_of(e.target);
      } else if (e.kind == K::kRmBlackhole) {
        (void)reverse_links_of(e.target);
      } else {
        (void)links_of(e.target);
      }
      if (e.duration.is_negative()) {
        throw std::invalid_argument{"fault plan: negative duration"};
      }
      break;
    }
    case K::kLeave:
    case K::kJoin:
    case K::kMisbehave:
    case K::kComply:
      check_session_live(e.target.index, "at plan load");
      break;
    case K::kMemSqueeze:
      if (!net_->overload_protection_enabled()) {
        throw std::invalid_argument{
            "fault plan: memsqueeze requires overload protection "
            "(enable_overload_protection / --overload)"};
      }
      if (e.duration.is_negative()) {
        throw std::invalid_argument{"fault plan: negative duration"};
      }
      break;
    case K::kVcStorm:
      if (!net_->overload_protection_enabled()) {
        throw std::invalid_argument{
            "fault plan: vcstorm requires overload protection "
            "(enable_overload_protection / --overload)"};
      }
      if (net_->num_sessions() == 0) {
        throw std::invalid_argument{
            "fault plan: vcstorm needs an existing session 0 to clone"};
      }
      if (e.duration.is_negative()) {
        throw std::invalid_argument{"fault plan: negative duration"};
      }
      break;
    case K::kCustom:
      if (!e.action) throw std::invalid_argument{"custom fault: null action"};
      break;
  }
}

void FaultInjector::record(const std::string& description, Phase phase) {
  log_.push_back(AppliedFault{sim_->now(), description});
  if (tap_) {
    tap_.record({.time = sim_->now(),
                 .kind = phase == Phase::kRecover
                             ? obs::EventKind::kFaultRecovered
                             : obs::EventKind::kFaultFired,
                 .label = tap_.log()->intern(description)});
  }
}

void FaultInjector::arm(sim::Time at, std::function<void()> action) {
  const std::size_t i = armed_.size();
  armed_.push_back(std::move(action));
  auto fire = [this, i] { armed_[i](); };
  static_assert(sim::EventQueue::Callback::fits_inline<decltype(fire)>);
  sim_->schedule_at(at, fire);
}

void FaultInjector::check_session_live(std::size_t s, const char* when) const {
  if (s >= net_->num_sessions()) {
    throw std::out_of_range{"fault plan: no such session " +
                            std::to_string(s) + " " + when + " (network has " +
                            std::to_string(net_->num_sessions()) + ")"};
  }
}

void FaultInjector::schedule_event(const FaultEvent& e) {
  using K = FaultEvent::Kind;
  switch (e.kind) {
    case K::kOutage: {
      auto links = links_of(e.target);
      const std::string name = e.target.to_string();
      arm(e.at, [this, links, name] {
        for (const auto& st : links) change_model(*st).down = true;
        record("outage begins on " + name);
      });
      arm(e.at + e.duration, [this, links, name] {
        for (const auto& st : links) change_model(*st).down = false;
        record("outage ends on " + name + " (restored)", Phase::kRecover);
      });
      break;
    }
    case K::kFlap: {
      auto links = links_of(e.target);
      const std::string name = e.target.to_string();
      sim::Time t = e.at;
      for (int c = 0; c < e.cycles; ++c) {
        arm(t, [this, links, name, c] {
          for (const auto& st : links) change_model(*st).down = true;
          record("flap cycle " + std::to_string(c + 1) + ": " + name +
                 " down");
        });
        arm(t + e.down_period, [this, links, name, c] {
          for (const auto& st : links) change_model(*st).down = false;
          record("flap cycle " + std::to_string(c + 1) + ": " + name + " up",
                 Phase::kRecover);
        });
        t += e.down_period + e.up_period;
      }
      break;
    }
    case K::kBurst: {
      auto links = links_of(e.target);
      const std::string name = e.target.to_string();
      const double p_gb = e.p_good_bad, p_bg = e.p_bad_good, lb = e.loss_bad;
      arm(e.at, [this, links, name, p_gb, p_bg, lb] {
        for (const auto& st : links) {
          atm::LinkState& m = change_model(*st);
          m.burst_enabled = true;
          m.burst_bad = false;  // every burst window starts Good
          m.burst_p_good_bad = p_gb;
          m.burst_p_bad_good = p_bg;
          m.burst_loss_good = 0.0;
          m.burst_loss_bad = lb;
        }
        record("burst loss begins on " + name);
      });
      arm(e.at + e.duration, [this, links, name] {
        for (const auto& st : links) change_model(*st).burst_enabled = false;
        record("burst loss ends on " + name, Phase::kRecover);
      });
      break;
    }
    case K::kRmFault: {
      auto links = links_of(e.target);
      const std::string name = e.target.to_string();
      const double drop = e.rm_loss, corrupt = e.rm_corrupt;
      arm(e.at, [this, links, name, drop, corrupt] {
        for (const auto& st : links) {
          atm::LinkState& m = change_model(*st);
          m.rm_loss = drop;
          m.rm_corrupt = corrupt;
        }
        record("RM fault begins on " + name);
      });
      arm(e.at + e.duration, [this, links, name] {
        for (const auto& st : links) {
          atm::LinkState& m = change_model(*st);
          m.rm_loss = 0.0;
          m.rm_corrupt = 0.0;
        }
        record("RM fault ends on " + name, Phase::kRecover);
      });
      break;
    }
    case K::kRmBlackhole: {
      auto links = reverse_links_of(e.target);
      const std::string name = e.target.to_string();
      const double drop = e.rm_loss;
      arm(e.at, [this, links, name, drop] {
        for (const auto& st : links) change_model(*st).rm_loss = drop;
        record("feedback blackhole begins on " + name +
               " (backward RM cells dropped)");
      });
      arm(e.at + e.duration, [this, links, name] {
        for (const auto& st : links) change_model(*st).rm_loss = 0.0;
        record("feedback blackhole ends on " + name + " (restored)",
               Phase::kRecover);
      });
      break;
    }
    case K::kRestart: {
      atm::PortController* ctl = &controller_of(e.target);
      const std::string name = e.target.to_string();
      const bool warm = e.warm;
      arm(e.at, [this, ctl, name, warm] {
        if (warm) {
          ctl->warm_restart();
          record("controller warm restart on " + name + " (" + ctl->name() +
                 " reseeding from observed RM traffic)");
        } else {
          ctl->reset();
          record("controller restart on " + name + " (" + ctl->name() +
                 " state wiped)");
        }
      });
      break;
    }
    case K::kLeave: {
      const std::size_t s = e.target.index;
      arm(e.at, [this, s] {
        check_session_live(s, "at activation");
        net_->source(s).set_active(false);
        record("session " + std::to_string(s) + " leaves");
      });
      break;
    }
    case K::kJoin: {
      const std::size_t s = e.target.index;
      arm(e.at, [this, s] {
        check_session_live(s, "at activation");
        atm::AbrSource& src = net_->source(s);
        if (src.started()) {
          src.set_active(true);
        } else {
          src.start(sim_->now());
        }
        record("session " + std::to_string(s) + " joins");
      });
      break;
    }
    case K::kMisbehave: {
      const std::size_t s = e.target.index;
      const MisbehaveMode mode = e.mode;
      const double compliance = e.compliance;
      arm(e.at, [this, s, mode, compliance] {
        check_session_live(s, "at activation");
        atm::SourceBehavior behavior = atm::SourceBehavior::kGreedy;
        switch (mode) {
          case MisbehaveMode::kGreedy:
            behavior = atm::SourceBehavior::kGreedy;
            break;
          case MisbehaveMode::kForge:
            behavior = atm::SourceBehavior::kForging;
            break;
          case MisbehaveMode::kPartial:
            behavior = atm::SourceBehavior::kPartial;
            break;
        }
        net_->set_session_behavior(s, behavior, compliance);
        std::string detail = "session " + std::to_string(s) +
                             " misbehaves (" + to_string(mode);
        if (mode == MisbehaveMode::kPartial) {
          detail += " compliance=" + std::to_string(compliance);
        }
        record(detail + ")");
      });
      break;
    }
    case K::kComply: {
      const std::size_t s = e.target.index;
      arm(e.at, [this, s] {
        check_session_live(s, "at activation");
        net_->set_session_behavior(s, atm::SourceBehavior::kCompliant);
        record("session " + std::to_string(s) + " returns to compliance",
               Phase::kRecover);
      });
      break;
    }
    case K::kMemSqueeze: {
      const double frac = e.mem_frac;
      arm(e.at, [this, frac] {
        net_->squeeze_buffers(frac);
        record("memory squeeze begins (budgets at " + format_fraction(frac) +
               " of configured)");
      });
      if (!e.duration.is_zero()) {
        arm(e.at + e.duration, [this] {
          net_->squeeze_buffers(1.0);
          record("memory squeeze ends (budgets restored)", Phase::kRecover);
        });
      }
      break;
    }
    case K::kVcStorm: {
      const int n = e.storm_sessions;
      // The storm's admitted-session list only exists once the setup
      // burst has fired; the teardown closure shares it via shared_ptr.
      auto admitted = std::make_shared<std::vector<std::size_t>>();
      arm(e.at, [this, n, admitted] {
        check_session_live(0, "at vcstorm activation");
        const topo::AbrNetwork::SessionShape shape = net_->session_shape(0);
        const atm::AbrParams params = net_->source(0).params();
        int refused = 0;
        for (int k = 0; k < n; ++k) {
          const auto outcome =
              net_->try_add_session(shape.ingress, shape.path, shape.dest,
                                    params);
          if (outcome.admitted) {
            admitted->push_back(outcome.session);
            net_->source(outcome.session).start(sim_->now());
          } else {
            ++refused;
          }
        }
        record("vc storm offers " + std::to_string(n) + " setups (" +
               std::to_string(admitted->size()) + " admitted, " +
               std::to_string(refused) + " refused)");
      });
      if (!e.duration.is_zero()) {
        arm(e.at + e.duration, [this, admitted] {
          for (const std::size_t s : *admitted) {
            net_->source(s).set_active(false);
            net_->teardown_session_state(s);
          }
          record("vc storm ends (" + std::to_string(admitted->size()) +
                     " storm sessions torn down)",
                 Phase::kRecover);
        });
      }
      break;
    }
    case K::kCustom: {
      auto action = e.action;
      const std::string label = e.label.empty() ? "custom" : e.label;
      arm(e.at, [this, action = std::move(action), label] {
        action();
        record(label);
      });
      break;
    }
  }
}

void FaultInjector::apply(const FaultPlan& plan, ValidateMode mode) {
  if (mode == ValidateMode::kEager) {
    for (const FaultEvent& e : plan.events) validate(e);
  } else {
    // Deferred mode still refuses what cannot be scheduled at all:
    // link/controller targets are resolved below, and a null custom
    // action can never become valid later.
    for (const FaultEvent& e : plan.events) {
      if (e.kind != FaultEvent::Kind::kLeave &&
          e.kind != FaultEvent::Kind::kJoin &&
          e.kind != FaultEvent::Kind::kMisbehave &&
          e.kind != FaultEvent::Kind::kComply) {
        validate(e);
      }
    }
  }
  for (const FaultEvent& e : plan.events) schedule_event(e);
  if (tap_) {
    for (const FaultEvent& e : plan.events) {
      tap_.record({.time = sim_->now(),
                   .kind = obs::EventKind::kFaultArmed,
                   .label = tap_.log()->intern(e.describe())});
    }
  }
}

void FaultInjector::register_metrics(obs::Registry& reg,
                                     const std::string& prefix) {
  reg.add_counter({prefix + ".transitions_armed", "fault.transitions_armed",
                   obs::MetricType::kCounter, "transitions", "FaultInjector",
                   "fault transitions scheduled by apply() (each windowed "
                   "fault contributes its fire and recover halves)"},
                  [this] { return armed_.size(); });
  reg.add_counter({prefix + ".transitions_fired", "fault.transitions_fired",
                   obs::MetricType::kCounter, "transitions", "FaultInjector",
                   "fault transitions that have taken effect so far"},
                  [this] { return log_.size(); });
}

}  // namespace phantom::fault
