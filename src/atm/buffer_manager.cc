#include "atm/buffer_manager.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "atm/output_port.h"

namespace phantom::atm {

void BufferConfig::validate() const {
  if (budget_cells < 1)
    throw std::invalid_argument{"buffer budget must be at least 1 cell"};
  if (guaranteed_fraction < 0.0 || guaranteed_fraction >= 1.0)
    throw std::invalid_argument{"guaranteed_fraction must be in [0, 1)"};
  if (alpha <= 0.0)
    throw std::invalid_argument{"alpha must be positive"};
  // Written so NaN fails too: the ladder's thresholds are searched for
  // the least occupancy that reaches each fraction, and none reaches NaN.
  if (!(epd_fraction > 0.0 && epd_fraction < 1.0))
    throw std::invalid_argument{"epd_fraction must be in (0, 1)"};
  if (!(shed_fraction >= epd_fraction && shed_fraction < 1.0))
    throw std::invalid_argument{
        "shed_fraction must be in [epd_fraction, 1)"};
}

std::string to_string(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kNormal: return "normal";
    case DegradationLevel::kEarlyDiscard: return "early-discard";
    case DegradationLevel::kShedding: return "shedding";
    case DegradationLevel::kExhausted: return "exhausted";
  }
  return "?";
}

namespace {

/// The least occupancy k for which k / budget, divided in doubles,
/// reaches `fraction` (in (0, 1)); budget / budget = 1 does, so
/// 1 <= k <= budget. The division is correctly rounded and so monotone
/// in k: from the first k on, every larger one reaches it too.
std::size_t least_occupancy_reaching(double fraction, std::size_t budget) {
  const auto e = static_cast<double>(budget);
  const auto reaches = [&](std::size_t k) {
    return static_cast<double>(k) / e >= fraction;
  };
  std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(fraction * e)), 1, budget);
  while (k > 1 && reaches(k - 1)) --k;
  while (!reaches(k)) ++k;
  return k;
}

}  // namespace

BufferManager::BufferManager(BufferConfig config) : config_{config} {
  config_.validate();
  set_budget();
}

void BufferManager::set_budget() {
  budget_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(config_.budget_cells) *
                                  squeeze_fraction_));
  elastic_limit_ = static_cast<std::size_t>(
      static_cast<double>(budget_) * (1.0 - config_.guaranteed_fraction));
  shed_at_ = least_occupancy_reaching(config_.shed_fraction, budget_);
  epd_at_ = least_occupancy_reaching(config_.epd_fraction, budget_);
}

int BufferManager::register_port(const OutputPort* port) {
  port_in_use_.push_back(0);
  ports_.push_back(port);
  return static_cast<int>(port_in_use_.size()) - 1;
}

void BufferManager::sync() const {
  // Releases only lower in_use_, so the grace allowance ends where a
  // walk over every port would leave it, whatever the list's order.
  for (std::size_t i = 0; i < busy_.size();) {
    const std::size_t p = busy_[i];
    const std::size_t queued = ports_[p]->queue_length();
    if (port_in_use_[p] > queued) release_cells(p, port_in_use_[p] - queued);
    if (port_in_use_[p] == 0) {
      busy_[i] = busy_.back();
      busy_.pop_back();
    } else {
      ++i;
    }
  }
}

std::size_t BufferManager::cells_in_use(int port) const {
  assert(port >= 0 && static_cast<std::size_t>(port) < port_in_use_.size());
  sync();
  return port_in_use_[static_cast<std::size_t>(port)];
}

void BufferManager::set_vc_mcr(int vc, sim::Rate mcr, sim::Time now) {
  VcState& st = vcs_[vc];
  st.mcr_cells_per_sec = mcr.cells_per_second();
  st.last_refill = now;
  st.tokens = st.token_cap;  // a fresh contract starts with full credit
}

bool BufferManager::evict_vc(int vc) { return vcs_.erase(vc); }

void BufferManager::squeeze(double fraction) {
  if (fraction <= 0.0 || fraction > 1.0)
    throw std::invalid_argument{"squeeze fraction must be in (0, 1]"};
  sync();
  squeeze_fraction_ = fraction;
  set_budget();
  // Cells buffered under the old budget drain at line rate; until they
  // do, the budget invariant allows exactly today's occupancy and the
  // allowance only ever shrinks.
  grace_ = in_use_ > budget_ ? in_use_ : 0;
  note_level(level_now());
}

bool BufferManager::frame_fits_mcr(VcState& st, const Cell& cell,
                                   sim::Time now) {
  if (st.mcr_cells_per_sec <= 0.0) return false;
  // Token bucket at the admitted MCR, frame-granular: the whole frame is
  // judged at its first cell so MCR protection never splits a frame
  // (EPD's whole point). Two frames of burst tolerance absorb the
  // RM-cell interleaving and pacing jitter of a source holding exactly
  // its MCR.
  st.token_cap = std::max(2.0, 2.0 * static_cast<double>(cell.frame_len));
  st.tokens = std::min(
      st.token_cap,
      st.tokens + st.mcr_cells_per_sec * (now - st.last_refill).seconds());
  st.last_refill = now;
  const auto need = static_cast<double>(cell.frame_len);
  if (st.tokens < need) return false;
  st.tokens -= need;
  return true;
}

void BufferManager::account_accept(int port) {
  const auto p = static_cast<std::size_t>(port);
  if (port_in_use_[p]++ == 0 && ports_[p] != nullptr) busy_.push_back(p);
  ++in_use_;
  peak_ = std::max(peak_, in_use_);
  ++accepted_;
  note_level(level_now());
}

BufferManager::Verdict BufferManager::admit(int port, const Cell& cell,
                                            sim::Time now) {
  assert(port >= 0 && static_cast<std::size_t>(port) < port_in_use_.size());
  sync();
  // Every verdict but an accept leaves occupancy, and so the level, as
  // it stands here.
  const DegradationLevel lvl = level_now();
  const bool exhausted = lvl == DegradationLevel::kExhausted;

  // Guaranteed-class and RM cells skip the frame machinery: CBR/VBR
  // carries no frames here, and RM cells are the control loop itself —
  // both yield only to true exhaustion.
  if (cell.high_priority || cell.is_rm()) {
    if (exhausted) {
      ++overflow_cells_;
      note_level(lvl);
      return Verdict::kDropOverflow;
    }
    account_accept(port);
    return Verdict::kAccept;
  }

  VcState& st = vcs_[cell.vc];
  const bool new_frame = !st.in_frame || cell.frame != st.cur_frame;
  if (new_frame) {
    st.in_frame = true;
    st.cur_frame = cell.frame;
    st.discarding = false;
    st.epd_frame = false;
    st.head_accepted = false;
    st.protected_frame = frame_fits_mcr(st, cell, now);
  }

  // EPD / whole-frame shedding decide at the frame's first cell: a frame
  // not worth finishing is not worth starting.
  if (new_frame && !st.protected_frame && lvl >= DegradationLevel::kShedding) {
    st.discarding = true;
    ++shed_cells_;
    note_level(lvl);
    if (cell.eof) st.in_frame = false;
    return Verdict::kDropShed;
  }
  if (new_frame && !st.protected_frame && config_.epd &&
      lvl >= DegradationLevel::kEarlyDiscard) {
    st.discarding = true;
    st.epd_frame = true;
    ++epd_frames_;
    note_level(lvl);
    if (cell.eof) st.in_frame = false;
    return Verdict::kDropEpd;
  }

  if (st.discarding) {
    // PPD cleanup: the frame is already damaged; its remaining cells
    // would only burn buffer. The EOM still goes through (if anything
    // of the frame did, and there is room) so the receiver can delimit
    // the corpse instead of merging it into the next frame.
    if (cell.eof) {
      st.in_frame = false;
      if (st.head_accepted && !exhausted) {
        account_accept(port);
        return Verdict::kAccept;
      }
    }
    if (st.epd_frame) return Verdict::kDropEpd;  // counted at frame start
    ++ppd_cells_;
    return Verdict::kDropPpd;
  }

  // Mid-frame shedding: above the shed threshold even in-flight elastic
  // frames lose their cells (the receiver loses the frame either way;
  // freeing the buffer now is what keeps admitted MCR traffic whole).
  if (!st.protected_frame && lvl >= DegradationLevel::kShedding) {
    st.discarding = true;
    ++shed_cells_;
    note_level(lvl);
    if (cell.eof) st.in_frame = false;
    return Verdict::kDropShed;
  }

  // Capacity: the hard budget binds everyone; the elastic partition and
  // the Choudhury–Hahne per-port threshold bind unprotected traffic.
  bool overflow = exhausted;
  if (!overflow && !st.protected_frame) {
    const auto port_limit = static_cast<std::size_t>(
        config_.alpha * static_cast<double>(budget_ - in_use_));
    overflow = in_use_ >= elastic_limit_ ||
               port_in_use_[static_cast<std::size_t>(port)] >= port_limit;
  }
  if (overflow) {
    ++overflow_cells_;
    st.discarding = true;  // PPD: the rest of this frame is waste now
    note_level(lvl);
    if (cell.eof) st.in_frame = false;
    return Verdict::kDropOverflow;
  }

  st.head_accepted = true;
  if (st.protected_frame) ++protected_cells_;
  account_accept(port);
  if (cell.eof) st.in_frame = false;
  return Verdict::kAccept;
}

void BufferManager::release(int port, const Cell& cell) {
  assert(port >= 0 && static_cast<std::size_t>(port) < port_in_use_.size());
  assert(ports_[static_cast<std::size_t>(port)] == nullptr);
  (void)cell;
  release_cells(static_cast<std::size_t>(port), 1);
}

void BufferManager::release_cells(std::size_t port, std::size_t cells) const {
  assert(in_use_ >= cells && port_in_use_[port] >= cells);
  in_use_ -= cells;
  port_in_use_[port] -= cells;
  if (grace_ > 0) {
    // Squeeze debt drains monotonically: once occupancy is back under
    // the effective budget the grace allowance is gone for good.
    grace_ = in_use_ > budget_ ? std::min(grace_, in_use_) : 0;
  }
}

void BufferManager::register_metrics(obs::Registry& reg,
                                     const std::string& prefix) {
  reg.add_counter({prefix + ".cells_accepted", "buffers.cells_accepted",
                   obs::MetricType::kCounter, "cells", "BufferManager",
                   "cells admitted into the shared memory"},
                  [this] { return accepted_; });
  reg.add_counter({prefix + ".frames_epd_discarded",
                   "buffers.frames_epd_discarded", obs::MetricType::kCounter,
                   "frames", "BufferManager",
                   "elastic frames refused whole by EPD"},
                  [this] { return epd_frames_; });
  reg.add_counter({prefix + ".cells_ppd_discarded",
                   "buffers.cells_ppd_discarded", obs::MetricType::kCounter,
                   "cells", "BufferManager",
                   "damaged-frame tail cells discarded by PPD"},
                  [this] { return ppd_cells_; });
  reg.add_counter({prefix + ".cells_shed", "buffers.cells_shed",
                   obs::MetricType::kCounter, "cells", "BufferManager",
                   "elastic cells shed above the shed threshold"},
                  [this] { return shed_cells_; });
  reg.add_counter({prefix + ".cells_overflow_dropped",
                   "buffers.cells_overflow_dropped", obs::MetricType::kCounter,
                   "cells", "BufferManager",
                   "cells dropped on hard budget/partition exhaustion"},
                  [this] { return overflow_cells_; });
  reg.add_counter({prefix + ".mcr_protected_cells",
                   "buffers.mcr_protected_cells", obs::MetricType::kCounter,
                   "cells", "BufferManager",
                   "cells admitted under MCR frame protection"},
                  [this] { return protected_cells_; });
  reg.add_gauge({prefix + ".cells_in_use", "buffers.cells_in_use",
                 obs::MetricType::kGauge, "cells", "BufferManager",
                 "current shared-memory occupancy"},
                [this] { return static_cast<double>(cells_in_use()); });
  reg.add_gauge({prefix + ".peak_cells_in_use", "buffers.peak_cells_in_use",
                 obs::MetricType::kGauge, "cells", "BufferManager",
                 "peak shared-memory occupancy so far"},
                [this] { return static_cast<double>(peak_); });
  reg.add_gauge({prefix + ".effective_budget", "buffers.effective_budget",
                 obs::MetricType::kGauge, "cells", "BufferManager",
                 "cell budget after any memsqueeze"},
                [this] { return static_cast<double>(effective_budget()); });
  reg.add_gauge({prefix + ".degradation_level", "buffers.degradation_level",
                 obs::MetricType::kGauge, "level", "BufferManager",
                 "0 normal / 1 EPD / 2 shedding / 3 exhausted"},
                [this] { return static_cast<double>(level()); });
  reg.add_gauge({prefix + ".tracked_vcs", "buffers.tracked_vcs",
                 obs::MetricType::kGauge, "vcs", "BufferManager",
                 "VCs with frame/MCR state"},
                [this] { return static_cast<double>(vcs_.size()); });
}

}  // namespace phantom::atm
