#include "fault/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "sim/parse_number.h"

namespace phantom::fault {

using sim::format_ms;

namespace {

[[nodiscard]] std::string kind_name(FaultEvent::Kind k) {
  switch (k) {
    case FaultEvent::Kind::kOutage:  return "outage";
    case FaultEvent::Kind::kFlap:    return "flap";
    case FaultEvent::Kind::kBurst:   return "burst";
    case FaultEvent::Kind::kRmFault: return "rmloss";
    case FaultEvent::Kind::kRmBlackhole: return "rm_blackhole";
    case FaultEvent::Kind::kRestart: return "restart";
    case FaultEvent::Kind::kLeave:   return "leave";
    case FaultEvent::Kind::kJoin:    return "join";
    case FaultEvent::Kind::kMisbehave: return "misbehave";
    case FaultEvent::Kind::kComply:  return "comply";
    case FaultEvent::Kind::kMemSqueeze: return "memsqueeze";
    case FaultEvent::Kind::kVcStorm: return "vcstorm";
    case FaultEvent::Kind::kCustom:  return "custom";
  }
  return "?";
}

[[nodiscard]] MisbehaveMode parse_mode(const std::string& field) {
  if (field == "greedy") return MisbehaveMode::kGreedy;
  if (field == "forge") return MisbehaveMode::kForge;
  if (field == "partial") return MisbehaveMode::kPartial;
  throw std::invalid_argument{
      "fault plan: unknown misbehave mode '" + field +
      "' (want greedy, forge or partial)"};
}

[[nodiscard]] std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in{s};
  while (std::getline(in, item, sep)) out.push_back(item);
  return out;
}

/// `field` as a T through the strict parser the CLIs use: the whole
/// field, in T's range, and finite.
template <typename T>
[[nodiscard]] T parse_field(const std::string& field,
                            const std::string& what) {
  try {
    return sim::parse_number<T>(field);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument{"fault plan: bad " + what + " '" + field + "'"};
  }
}

/// Milliseconds as a sim::Time: not negative, and within its range.
[[nodiscard]] sim::Time parse_ms(const std::string& field,
                                 const std::string& what) {
  const double ms = parse_field<double>(field, what);
  if (ms < 0) throw std::invalid_argument{"fault plan: negative " + what};
  try {
    return sim::time_from_ms(ms);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument{"fault plan: bad " + what + " '" + field + "'"};
  }
}

[[nodiscard]] double parse_probability(const std::string& field,
                                       const std::string& what) {
  const double p = parse_field<double>(field, what);
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument{"fault plan: " + what + " must be in [0,1]"};
  }
  return p;
}

[[nodiscard]] FaultTarget parse_target(const std::string& field) {
  const auto make = [&](FaultTarget::Kind kind, std::size_t prefix_len) {
    try {
      return FaultTarget{
          kind, sim::parse_number<std::size_t>(field.substr(prefix_len))};
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument{"fault plan: bad target index in '" + field +
                                  "'"};
    }
  };
  if (field.rfind("trunk", 0) == 0) return make(FaultTarget::Kind::kTrunk, 5);
  if (field.rfind("dest", 0) == 0) return make(FaultTarget::Kind::kDest, 4);
  throw std::invalid_argument{
      "fault plan: unknown target '" + field + "' (want trunkN or destN)"};
}

[[nodiscard]] std::size_t parse_session(const std::string& field) {
  return parse_field<std::size_t>(field, "session index");
}

void expect_fields(const std::vector<std::string>& f, std::size_t lo,
                   std::size_t hi, const std::string& kind) {
  if (f.size() < lo || f.size() > hi) {
    throw std::invalid_argument{"fault plan: wrong field count for '" + kind +
                                "' event (got " + std::to_string(f.size() - 1) +
                                " fields)"};
  }
}

/// Shortest-ish decimal that survives a stod round trip for the
/// probabilities the grammar carries ("%.12g" exceeds their precision).
[[nodiscard]] std::string format_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

std::string FaultTarget::to_string() const {
  switch (kind) {
    case Kind::kTrunk: return "trunk" + std::to_string(index);
    case Kind::kDest: return "dest" + std::to_string(index);
    case Kind::kSession: return "session" + std::to_string(index);
  }
  return "?";
}

bool operator==(const FaultTarget& a, const FaultTarget& b) {
  return a.kind == b.kind && a.index == b.index;
}

std::string to_string(MisbehaveMode m) {
  switch (m) {
    case MisbehaveMode::kGreedy: return "greedy";
    case MisbehaveMode::kForge: return "forge";
    case MisbehaveMode::kPartial: return "partial";
  }
  return "?";
}

bool operator==(const FaultEvent& a, const FaultEvent& b) {
  return a.kind == b.kind && a.target == b.target && a.at == b.at &&
         a.duration == b.duration && a.down_period == b.down_period &&
         a.up_period == b.up_period && a.cycles == b.cycles &&
         a.p_good_bad == b.p_good_bad && a.p_bad_good == b.p_bad_good &&
         a.loss_bad == b.loss_bad && a.rm_loss == b.rm_loss &&
         a.rm_corrupt == b.rm_corrupt && a.warm == b.warm &&
         a.mode == b.mode && a.compliance == b.compliance &&
         a.mem_frac == b.mem_frac && a.storm_sessions == b.storm_sessions &&
         a.label == b.label;
}

std::string FaultEvent::to_spec() const {
  switch (kind) {
    case Kind::kOutage:
      return "outage:" + target.to_string() + ':' + format_ms(at) + ':' +
             format_ms(duration);
    case Kind::kFlap:
      return "flap:" + target.to_string() + ':' + format_ms(at) + ':' +
             std::to_string(cycles) + ':' + format_ms(down_period) + ':' +
             format_ms(up_period);
    case Kind::kBurst:
      return "burst:" + target.to_string() + ':' + format_ms(at) + ':' +
             format_ms(duration) + ':' + format_num(p_good_bad) + ':' +
             format_num(p_bad_good) + ':' + format_num(loss_bad);
    case Kind::kRmFault:
      return "rmloss:" + target.to_string() + ':' + format_ms(at) + ':' +
             format_ms(duration) + ':' + format_num(rm_loss) + ':' +
             format_num(rm_corrupt);
    case Kind::kRmBlackhole:
      // A full blackout (the default) omits the probability so the
      // shortest spelling round-trips; partial blackholes carry it.
      return "rm_blackhole:" + target.to_string() + ':' + format_ms(at) + ':' +
             format_ms(duration) +
             (rm_loss == 1.0 ? std::string{} : ':' + format_num(rm_loss));
    case Kind::kRestart:
      return "restart:" + target.to_string() + ':' + format_ms(at) +
             (warm ? ":warm" : std::string{});
    case Kind::kLeave:
      return "leave:" + std::to_string(target.index) + ':' + format_ms(at);
    case Kind::kJoin:
      return "join:" + std::to_string(target.index) + ':' + format_ms(at);
    case Kind::kMisbehave:
      return "misbehave:" + std::to_string(target.index) + ':' +
             format_ms(at) + ':' + to_string(mode) +
             (mode == MisbehaveMode::kPartial ? ':' + format_num(compliance)
                                              : std::string{});
    case Kind::kComply:
      return "comply:" + std::to_string(target.index) + ':' + format_ms(at);
    case Kind::kMemSqueeze:
      // Network-wide: no target field. A zero duration (squeeze holds
      // for the rest of the run) takes the shortest spelling.
      return "memsqueeze:" + format_ms(at) + ':' + format_num(mem_frac) +
             (duration.is_zero() ? std::string{} : ':' + format_ms(duration));
    case Kind::kVcStorm:
      return "vcstorm:" + format_ms(at) + ':' +
             std::to_string(storm_sessions) +
             (duration.is_zero() ? std::string{} : ':' + format_ms(duration));
    case Kind::kCustom:
      throw std::logic_error{
          "fault plan: custom event '" + label +
          "' has no text form (programmatic plans only)"};
  }
  throw std::logic_error{"fault plan: bad event kind"};
}

std::string FaultEvent::describe() const {
  std::ostringstream out;
  out << kind_name(kind);
  if (kind == Kind::kCustom) {
    if (!label.empty()) out << ':' << label;
  } else if (kind == Kind::kMemSqueeze || kind == Kind::kVcStorm) {
    out << ":network";  // resource faults hit every switch at once
  } else {
    out << ':' << target.to_string();
  }
  out << " @" << at.to_string();
  switch (kind) {
    case Kind::kOutage:
    case Kind::kBurst:
    case Kind::kRmFault:
      out << " for " << duration.to_string();
      break;
    case Kind::kRmBlackhole:
      out << " for " << duration.to_string() << " (backward RM x"
          << format_num(rm_loss) << ')';
      break;
    case Kind::kRestart:
      out << (warm ? " (warm)" : " (cold)");
      break;
    case Kind::kFlap:
      out << " x" << cycles << " (" << down_period.to_string() << " down / "
          << up_period.to_string() << " up)";
      break;
    case Kind::kMisbehave:
      out << " (" << fault::to_string(mode);
      if (mode == MisbehaveMode::kPartial) out << " compliance=" << compliance;
      out << ')';
      break;
    case Kind::kMemSqueeze:
      out << " (budget x" << format_num(mem_frac) << ')';
      if (!duration.is_zero()) out << " for " << duration.to_string();
      break;
    case Kind::kVcStorm:
      out << " (" << storm_sessions << " setups)";
      if (!duration.is_zero()) out << " for " << duration.to_string();
      break;
    default:
      break;
  }
  return out.str();
}

sim::Time FaultEvent::end() const {
  std::int64_t span = duration.nanoseconds();
  std::int64_t ns = 0;
  if ((kind == Kind::kFlap &&
       (__builtin_add_overflow(down_period.nanoseconds(),
                               up_period.nanoseconds(), &span) ||
        __builtin_mul_overflow(span, std::int64_t{cycles}, &span))) ||
      __builtin_add_overflow(at.nanoseconds(), span, &ns)) {
    throw std::invalid_argument{
        "fault plan: event ends beyond sim::Time's range"};
  }
  return sim::Time::ns(ns);
}

FaultPlan& FaultPlan::outage(FaultTarget t, sim::Time at, sim::Time duration) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kOutage;
  e.target = t;
  e.at = at;
  e.duration = duration;
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::flap(FaultTarget t, sim::Time at, int cycles,
                           sim::Time down, sim::Time up) {
  if (cycles < 1) throw std::invalid_argument{"flap: cycles must be >= 1"};
  FaultEvent e;
  e.kind = FaultEvent::Kind::kFlap;
  e.target = t;
  e.at = at;
  e.cycles = cycles;
  e.down_period = down;
  e.up_period = up;
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::burst(FaultTarget t, sim::Time at, sim::Time duration,
                            double p_good_bad, double p_bad_good,
                            double loss_bad) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kBurst;
  e.target = t;
  e.at = at;
  e.duration = duration;
  e.p_good_bad = p_good_bad;
  e.p_bad_good = p_bad_good;
  e.loss_bad = loss_bad;
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::rm_fault(FaultTarget t, sim::Time at, sim::Time duration,
                               double drop_probability,
                               double corrupt_probability) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kRmFault;
  e.target = t;
  e.at = at;
  e.duration = duration;
  e.rm_loss = drop_probability;
  e.rm_corrupt = corrupt_probability;
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::rm_blackhole(FaultTarget t, sim::Time at,
                                   sim::Time duration,
                                   double drop_probability) {
  if (drop_probability < 0.0 || drop_probability > 1.0) {
    throw std::invalid_argument{
        "rm_blackhole: drop probability must be in [0,1]"};
  }
  FaultEvent e;
  e.kind = FaultEvent::Kind::kRmBlackhole;
  e.target = t;
  e.at = at;
  e.duration = duration;
  e.rm_loss = drop_probability;
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::restart(FaultTarget t, sim::Time at, bool warm) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kRestart;
  e.target = t;
  e.at = at;
  e.warm = warm;
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::leave(std::size_t session_index, sim::Time at) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kLeave;
  e.target = session(session_index);
  e.at = at;
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::join(std::size_t session_index, sim::Time at) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kJoin;
  e.target = session(session_index);
  e.at = at;
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::misbehave(std::size_t session_index, sim::Time at,
                                MisbehaveMode mode, double compliance) {
  if (compliance < 0.0 || compliance > 1.0) {
    throw std::invalid_argument{"misbehave: compliance must be in [0,1]"};
  }
  FaultEvent e;
  e.kind = FaultEvent::Kind::kMisbehave;
  e.target = session(session_index);
  e.at = at;
  e.mode = mode;
  // Only kPartial carries a compliance factor; normalizing the others
  // to zero keeps operator== and the parse(to_spec()) round trip exact.
  e.compliance = mode == MisbehaveMode::kPartial ? compliance : 0.0;
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::comply(std::size_t session_index, sim::Time at) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kComply;
  e.target = session(session_index);
  e.at = at;
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::memsqueeze(sim::Time at, double fraction,
                                 sim::Time duration) {
  if (fraction <= 0.0 || fraction > 1.0) {
    throw std::invalid_argument{
        "memsqueeze: budget fraction must be in (0,1]"};
  }
  FaultEvent e;
  e.kind = FaultEvent::Kind::kMemSqueeze;
  e.at = at;
  e.duration = duration;
  e.mem_frac = fraction;
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::vcstorm(sim::Time at, int sessions,
                              sim::Time duration) {
  if (sessions < 1) {
    throw std::invalid_argument{"vcstorm: session count must be >= 1"};
  }
  FaultEvent e;
  e.kind = FaultEvent::Kind::kVcStorm;
  e.at = at;
  e.duration = duration;
  e.storm_sessions = sessions;
  events.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::custom(sim::Time at, std::function<void()> action,
                             std::string label) {
  if (!action) throw std::invalid_argument{"custom fault: null action"};
  FaultEvent e;
  e.kind = FaultEvent::Kind::kCustom;
  e.at = at;
  e.action = std::move(action);
  e.label = std::move(label);
  events.push_back(std::move(e));
  return *this;
}

sim::Time FaultPlan::first_fault_time() const {
  sim::Time first = sim::Time::max();
  for (const FaultEvent& e : events) first = std::min(first, e.at);
  return events.empty() ? sim::Time::zero() : first;
}

sim::Time FaultPlan::last_recovery_time() const {
  sim::Time last = sim::Time::zero();
  for (const FaultEvent& e : events) last = std::max(last, e.end());
  return last;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t offset = 0;  // character position of the current event
  std::size_t index = 1;   // 1-based ordinal of the current event
  for (const std::string& item : split(spec, ';')) {
    const std::size_t item_offset = offset;
    offset += item.size() + 1;  // +1 for the ';' separator
    if (item.empty()) continue;
    try {
      plan.parse_event(item);
      const FaultEvent& added = plan.events.back();
      (void)added.end();  // the injector schedules it, so it must fit
      // Duplicate rejection: two events of the same kind on the same
      // entity at the same instant can only be a typo (or a generator
      // bug) — the injector would apply one of them twice.
      for (std::size_t i = 0; i + 1 < plan.events.size(); ++i) {
        const FaultEvent& prev = plan.events[i];
        if (prev.kind == added.kind && prev.target == added.target &&
            prev.at == added.at) {
          // memsqueeze/vcstorm act network-wide; naming their (unused)
          // default target would point the user at a trunk that plays
          // no part in the clash.
          const bool network_wide = added.kind == FaultEvent::Kind::kMemSqueeze ||
                                    added.kind == FaultEvent::Kind::kVcStorm;
          throw std::invalid_argument{
              "fault plan: duplicate " + kind_name(added.kind) + " event" +
              (network_wide ? "" : " on " + added.target.to_string()) +
              " at " + format_ms(added.at) + "ms (first occurrence is event " +
              std::to_string(i + 1) + ")"};
        }
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument{std::string{e.what()} + " in event " +
                                  std::to_string(index) + " (\"" + item +
                                  "\") at character " +
                                  std::to_string(item_offset)};
    }
    ++index;
  }
  return plan;
}

void FaultPlan::parse_event(const std::string& item) {
  FaultPlan& plan = *this;
  {
    const auto f = split(item, ':');
    const std::string& kind = f[0];
    if (kind == "outage") {
      expect_fields(f, 4, 4, kind);
      plan.outage(parse_target(f[1]), parse_ms(f[2], "time"),
                  parse_ms(f[3], "duration"));
    } else if (kind == "flap") {
      expect_fields(f, 6, 6, kind);
      const int cycles = parse_field<int>(f[3], "cycle count");
      if (cycles < 1) {
        throw std::invalid_argument{"fault plan: bad cycle count '" + f[3] +
                                    "'"};
      }
      plan.flap(parse_target(f[1]), parse_ms(f[2], "time"), cycles,
                parse_ms(f[4], "down period"), parse_ms(f[5], "up period"));
    } else if (kind == "burst") {
      expect_fields(f, 7, 7, kind);
      plan.burst(parse_target(f[1]), parse_ms(f[2], "time"),
                 parse_ms(f[3], "duration"),
                 parse_probability(f[4], "P(good->bad)"),
                 parse_probability(f[5], "P(bad->good)"),
                 parse_probability(f[6], "bad-state loss"));
    } else if (kind == "rmloss") {
      expect_fields(f, 5, 6, kind);
      plan.rm_fault(parse_target(f[1]), parse_ms(f[2], "time"),
                    parse_ms(f[3], "duration"),
                    parse_probability(f[4], "RM drop probability"),
                    f.size() == 6
                        ? parse_probability(f[5], "RM corrupt probability")
                        : 0.0);
    } else if (kind == "rm_blackhole") {
      expect_fields(f, 4, 5, kind);
      plan.rm_blackhole(parse_target(f[1]), parse_ms(f[2], "time"),
                        parse_ms(f[3], "duration"),
                        f.size() == 5
                            ? parse_probability(f[4], "RM drop probability")
                            : 1.0);
    } else if (kind == "restart") {
      expect_fields(f, 3, 4, kind);
      bool warm = false;
      if (f.size() == 4) {
        if (f[3] == "warm") {
          warm = true;
        } else if (f[3] != "cold") {
          throw std::invalid_argument{"fault plan: unknown restart mode '" +
                                      f[3] + "' (want warm or cold)"};
        }
      }
      plan.restart(parse_target(f[1]), parse_ms(f[2], "time"), warm);
    } else if (kind == "leave" || kind == "join" || kind == "comply") {
      expect_fields(f, 3, 3, kind);
      const std::size_t s = parse_session(f[1]);
      const sim::Time at = parse_ms(f[2], "time");
      if (kind == "leave") {
        plan.leave(s, at);
      } else if (kind == "join") {
        plan.join(s, at);
      } else {
        plan.comply(s, at);
      }
    } else if (kind == "misbehave") {
      expect_fields(f, 4, 5, kind);
      plan.misbehave(parse_session(f[1]), parse_ms(f[2], "time"),
                     parse_mode(f[3]),
                     f.size() == 5 ? parse_probability(f[4], "compliance")
                                   : 0.0);
    } else if (kind == "memsqueeze") {
      expect_fields(f, 3, 4, kind);
      const double frac = parse_field<double>(f[2], "budget fraction");
      if (frac <= 0.0 || frac > 1.0) {
        throw std::invalid_argument{
            "fault plan: budget fraction must be in (0,1]"};
      }
      plan.memsqueeze(parse_ms(f[1], "time"), frac,
                      f.size() == 4 ? parse_ms(f[3], "duration")
                                    : sim::Time::zero());
    } else if (kind == "vcstorm") {
      expect_fields(f, 3, 4, kind);
      const int n = parse_field<int>(f[2], "session count");
      if (n < 1) {
        throw std::invalid_argument{"fault plan: bad session count '" + f[2] +
                                    "'"};
      }
      plan.vcstorm(parse_ms(f[1], "time"), n,
                   f.size() == 4 ? parse_ms(f[3], "duration")
                                 : sim::Time::zero());
    } else {
      throw std::invalid_argument{"fault plan: unknown event kind '" + kind +
                                  "'"};
    }
  }
}

std::string FaultPlan::to_spec() const {
  std::string out;
  for (const FaultEvent& e : events) {
    if (!out.empty()) out += ';';
    out += e.to_spec();
  }
  return out;
}

}  // namespace phantom::fault
