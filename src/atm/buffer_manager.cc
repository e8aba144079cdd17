#include "atm/buffer_manager.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace phantom::atm {

void BufferConfig::validate() const {
  if (budget_cells < 1)
    throw std::invalid_argument{"buffer budget must be at least 1 cell"};
  if (guaranteed_fraction < 0.0 || guaranteed_fraction >= 1.0)
    throw std::invalid_argument{"guaranteed_fraction must be in [0, 1)"};
  if (alpha <= 0.0)
    throw std::invalid_argument{"alpha must be positive"};
  if (epd_fraction <= 0.0 || epd_fraction >= 1.0)
    throw std::invalid_argument{"epd_fraction must be in (0, 1)"};
  if (shed_fraction < epd_fraction || shed_fraction >= 1.0)
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

BufferManager::BufferManager(BufferConfig config) : config_{config} {
  config_.validate();
}

int BufferManager::register_port() {
  port_in_use_.push_back(0);
  return static_cast<int>(port_in_use_.size()) - 1;
}

std::size_t BufferManager::effective_budget() const {
  const auto eff = static_cast<std::size_t>(
      static_cast<double>(config_.budget_cells) * squeeze_fraction_);
  return std::max<std::size_t>(1, eff);
}

std::size_t BufferManager::cells_in_use(int port) const {
  assert(port >= 0 && static_cast<std::size_t>(port) < port_in_use_.size());
  return port_in_use_[static_cast<std::size_t>(port)];
}

DegradationLevel BufferManager::level() const {
  const std::size_t e = effective_budget();
  if (in_use_ >= e) return DegradationLevel::kExhausted;
  const double occupancy =
      static_cast<double>(in_use_) / static_cast<double>(e);
  if (occupancy >= config_.shed_fraction) return DegradationLevel::kShedding;
  if (occupancy >= config_.epd_fraction)
    return DegradationLevel::kEarlyDiscard;
  return DegradationLevel::kNormal;
}

void BufferManager::note_level() {
  worst_level_ = std::max(worst_level_, level());
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
  squeeze_fraction_ = fraction;
  // Cells buffered under the old budget drain at line rate; until they
  // do, the budget invariant allows exactly today's occupancy and the
  // allowance only ever shrinks.
  grace_ = in_use_ > effective_budget() ? in_use_ : 0;
  note_level();
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

void BufferManager::account_accept(int port, const Cell& cell) {
  ++in_use_;
  ++port_in_use_[static_cast<std::size_t>(port)];
  peak_ = std::max(peak_, in_use_);
  ++accepted_;
  (void)cell;
  note_level();
}

BufferManager::Verdict BufferManager::admit(int port, const Cell& cell,
                                            sim::Time now) {
  assert(port >= 0 && static_cast<std::size_t>(port) < port_in_use_.size());
  const std::size_t budget = effective_budget();
  const bool exhausted = in_use_ >= budget;

  // Guaranteed-class and RM cells skip the frame machinery: CBR/VBR
  // carries no frames here, and RM cells are the control loop itself —
  // both yield only to true exhaustion.
  if (cell.high_priority || cell.is_rm()) {
    if (exhausted) {
      ++overflow_cells_;
      note_level();
      return Verdict::kDropOverflow;
    }
    account_accept(port, cell);
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
  const DegradationLevel lvl = level();

  // EPD / whole-frame shedding decide at the frame's first cell: a frame
  // not worth finishing is not worth starting.
  if (new_frame && !st.protected_frame && lvl >= DegradationLevel::kShedding) {
    st.discarding = true;
    ++shed_cells_;
    note_level();
    if (cell.eof) st.in_frame = false;
    return Verdict::kDropShed;
  }
  if (new_frame && !st.protected_frame && config_.epd &&
      lvl >= DegradationLevel::kEarlyDiscard) {
    st.discarding = true;
    st.epd_frame = true;
    ++epd_frames_;
    note_level();
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
      if (st.head_accepted && in_use_ < budget) {
        account_accept(port, cell);
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
    note_level();
    if (cell.eof) st.in_frame = false;
    return Verdict::kDropShed;
  }

  // Capacity: the hard budget binds everyone; the elastic partition and
  // the Choudhury–Hahne per-port threshold bind unprotected traffic.
  bool overflow = exhausted;
  if (!overflow && !st.protected_frame) {
    const auto elastic_limit = static_cast<std::size_t>(
        static_cast<double>(budget) * (1.0 - config_.guaranteed_fraction));
    const auto port_limit = static_cast<std::size_t>(
        config_.alpha * static_cast<double>(budget - in_use_));
    overflow = in_use_ >= elastic_limit ||
               port_in_use_[static_cast<std::size_t>(port)] >= port_limit;
  }
  if (overflow) {
    ++overflow_cells_;
    st.discarding = true;  // PPD: the rest of this frame is waste now
    note_level();
    if (cell.eof) st.in_frame = false;
    return Verdict::kDropOverflow;
  }

  st.head_accepted = true;
  if (st.protected_frame) ++protected_cells_;
  account_accept(port, cell);
  if (cell.eof) st.in_frame = false;
  return Verdict::kAccept;
}

void BufferManager::release(int port, const Cell& cell) {
  assert(port >= 0 && static_cast<std::size_t>(port) < port_in_use_.size());
  assert(in_use_ > 0 && port_in_use_[static_cast<std::size_t>(port)] > 0);
  (void)cell;
  --in_use_;
  --port_in_use_[static_cast<std::size_t>(port)];
  if (grace_ > 0) {
    // Squeeze debt drains monotonically: once occupancy is back under
    // the effective budget the grace allowance is gone for good.
    grace_ = in_use_ > effective_budget() ? std::min(grace_, in_use_) : 0;
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
                [this] { return static_cast<double>(in_use_); });
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
