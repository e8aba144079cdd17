#include "fault/invariant_monitor.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "atm/cell.h"
#include "stats/fairness.h"

namespace phantom::fault {

InvariantMonitor::InvariantMonitor(sim::Simulator& sim, topo::AbrNetwork& net,
                                   sim::Time period)
    : sim_{&sim}, net_{&net}, period_{period}, last_check_{sim.now()} {
  if (period_ <= sim::Time::zero()) {
    throw std::invalid_argument{"InvariantMonitor: period must be positive"};
  }
  sim_->schedule(period_, [this] { tick(); });
}

void InvariantMonitor::tick() {
  check_now();
  sim_->schedule(period_, [this] { tick(); });
}

void InvariantMonitor::check_now() {
  ++checks_;
  check_time_monotonic();
  check_conservation();
  check_queue_bounds();
  check_rate_bounds();
  check_stale_rate();
  check_fair_share();
  check_buffer_budget();
  check_refusal_monotone();
  check_mcr_retention();
  last_check_ = sim_->now();
}

void InvariantMonitor::enable_fair_share_check(FairShareOptions options) {
  fs_options_ = std::move(options);
  if (fs_options_.sessions.empty()) {
    for (std::size_t s = 0; s < net_->num_sessions(); ++s) {
      fs_options_.sessions.push_back(s);
    }
  }
  fs_prev_delivered_.clear();
  for (const std::size_t s : fs_options_.sessions) {
    fs_prev_delivered_.push_back(net_->delivered_cells(s));
  }
  fs_last_sample_ = sim_->now();
  fs_enabled_ = true;
}

void InvariantMonitor::add(const char* invariant, std::string detail) {
  InvariantViolation v{sim_->now(), invariant, std::move(detail), {}};
  if (event_log_ != nullptr) {
    v.recent_events = event_log_->tail_jsonl(flight_depth_);
  }
  violations_.push_back(std::move(v));
}

void InvariantMonitor::check_time_monotonic() {
  if (sim_->now() < last_check_) {
    add("time-monotonicity", "clock ran backwards: now " +
                                 sim_->now().to_string() + " < previous check " +
                                 last_check_.to_string());
  }
}

void InvariantMonitor::check_conservation() {
  // Every cell ever created must be somewhere. Creation points: ABR
  // sources (data + FRM), CBR sources, and destinations (each turned FRM
  // creates one BRM). A cell is accounted for when it is absorbed at an
  // endpoint (destination data/FRM, source BRM, switch unrouted-bin),
  // dropped at a full port queue, lost on a link, still queued at a
  // port (departure ahead, the cell being serialized included), or in
  // flight on a link (departed, not yet delivered or judged lost).
  std::uint64_t created = 0;
  std::uint64_t absorbed = 0;
  for (std::size_t s = 0; s < net_->num_sessions(); ++s) {
    const atm::AbrSource& src = net_->source(s);
    created += src.data_cells_sent() + src.rm_cells_sent();
    absorbed += src.brm_cells_received();
  }
  for (std::size_t c = 0; c < net_->num_cbr_sessions(); ++c) {
    created += net_->cbr_source(c).cells_sent();
  }
  for (std::size_t d = 0; d < net_->num_destinations(); ++d) {
    const atm::AbrDestination& dst = net_->destination(d);
    created += dst.rm_cells_turned();  // each turned FRM births a BRM
    absorbed += dst.total_data_cells() + dst.rm_cells_turned();
  }
  std::uint64_t queued = 0;
  std::uint64_t dropped = 0;
  for (std::size_t w = 0; w < net_->num_switches(); ++w) {
    atm::Switch& sw = net_->node(w);
    absorbed += sw.unrouted_cells();
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      queued += sw.port(p).queue_length();
      dropped += sw.port(p).cells_dropped();
    }
  }
  std::uint64_t lost = 0;
  std::uint64_t in_flight = 0;
  net_->for_each_link_state([&lost, &in_flight](const atm::LinkState& st) {
    lost += st.lost();
    in_flight += st.in_flight();
  });
  // Cells discarded by drop-mode policing never reach a port queue, so
  // they are neither "dropped" (port counter) nor "lost" (link
  // counter): they get their own ledger term.
  const std::uint64_t policed = net_->policer_dropped_cells();
  const std::uint64_t accounted =
      absorbed + queued + dropped + lost + in_flight + policed;
  if (created != accounted) {
    std::ostringstream out;
    out << "created " << created << " != accounted " << accounted
        << " (absorbed " << absorbed << " + queued " << queued << " + dropped "
        << dropped << " + lost " << lost << " + in-flight " << in_flight
        << " + policed " << policed << ")";
    add("cell-conservation", out.str());
  }
}

void InvariantMonitor::check_queue_bounds() {
  for (std::size_t w = 0; w < net_->num_switches(); ++w) {
    atm::Switch& sw = net_->node(w);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      const atm::OutputPort& port = sw.port(p);
      if (port.queue_length() > port.queue_limit()) {
        add("queue-bounds",
            sw.name() + " port " + std::to_string(p) + ": occupancy " +
                std::to_string(port.queue_length()) + " exceeds limit " +
                std::to_string(port.queue_limit()));
      }
    }
  }
}

void InvariantMonitor::check_rate_bounds() {
  for (std::size_t w = 0; w < net_->num_switches(); ++w) {
    atm::Switch& sw = net_->node(w);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      const atm::PortController& ctl = sw.port(p).controller();
      const double share = ctl.fair_share().bits_per_sec();
      if (!std::isfinite(share) || share < 0.0) {
        add("rate-bounds", sw.name() + " port " + std::to_string(p) + " (" +
                               ctl.name() + "): fair share " +
                               std::to_string(share) + " b/s");
      }
    }
  }
  for (std::size_t s = 0; s < net_->num_sessions(); ++s) {
    const atm::AbrSource& src = net_->source(s);
    const double acr = src.acr().bits_per_sec();
    const double pcr = src.params().pcr.bits_per_sec();
    if (!std::isfinite(acr) || acr < 0.0 || acr > pcr) {
      add("rate-bounds", "session " + std::to_string(s) + ": ACR " +
                             std::to_string(acr) + " b/s outside [0, PCR=" +
                             std::to_string(pcr) + "]");
    }
  }
}

void InvariantMonitor::check_stale_rate() {
  // Only sources that claim to follow the feedback protocol are held to
  // the decay envelope: greedy/forging sources ignore feedback by
  // design (the policer is their countermeasure, not this invariant).
  // The check runs whether or not feedback_decay is enabled — that is
  // the point of the ablation: with decay off, a feedback blackhole
  // leaves ACR parked above the envelope and this invariant names it.
  for (std::size_t s = 0; s < net_->num_sessions(); ++s) {
    const atm::AbrSource& src = net_->source(s);
    const atm::SourceBehavior b = src.behavior();
    if (b != atm::SourceBehavior::kCompliant &&
        b != atm::SourceBehavior::kPartial) {
      continue;
    }
    const double envelope = src.stale_rate_envelope().bits_per_sec();
    const double acr = src.acr().bits_per_sec();
    // The envelope reproduces the source's stepwise CDF decay with one
    // pow(), so allow FP ulp drift but nothing that looks like a
    // skipped decay step.
    if (acr > envelope * (1.0 + 1e-6)) {
      std::ostringstream out;
      out << "session " << s << ": ACR " << acr
          << " b/s exceeds stale-rate envelope " << envelope << " b/s ("
          << src.frms_since_brm() << " FRMs since last BRM, crm="
          << src.params().crm << ")";
      add("stale-rate", out.str());
    }
  }
}

void InvariantMonitor::check_fair_share() {
  if (!fs_enabled_) return;
  const sim::Time now = sim_->now();
  const sim::Time elapsed = now - fs_last_sample_;
  if (elapsed < fs_options_.window) return;

  std::vector<sim::Rate> ideal;
  try {
    ideal = net_->reference_rates(fs_options_.phantom_per_link,
                                  fs_options_.utilization);
  } catch (const std::exception&) {
    // The reference allocation can be undefined mid-fault (e.g. CBR
    // load saturating a link leaves zero controlled capacity). Nothing
    // to compare against — resync the sample baseline and move on.
    for (std::size_t i = 0; i < fs_options_.sessions.size(); ++i) {
      fs_prev_delivered_[i] = net_->delivered_cells(fs_options_.sessions[i]);
    }
    fs_last_sample_ = now;
    return;
  }

  std::vector<double> measured;
  std::vector<double> reference;
  for (std::size_t i = 0; i < fs_options_.sessions.size(); ++i) {
    const std::size_t s = fs_options_.sessions[i];
    const std::uint64_t delivered = net_->delivered_cells(s);
    const std::uint64_t delta = delivered - fs_prev_delivered_[i];
    fs_prev_delivered_[i] = delivered;
    // A session that is (or went) inactive this window is entitled to
    // nothing; comparing its partial-window goodput to a full share
    // would be a false alarm. Same for a zero reference rate.
    const atm::AbrSource& src = net_->source(s);
    if (!src.active() || ideal[s].bits_per_sec() <= 0.0) continue;
    // delivered_cells counts data cells only; every Nrm-th cell of the
    // allocation is an FRM, so scale goodput back up to wire rate.
    const double rm_overhead = static_cast<double>(src.params().nrm) /
                               static_cast<double>(src.params().nrm - 1);
    measured.push_back(static_cast<double>(delta) * atm::kCellBits *
                       rm_overhead / elapsed.seconds());
    reference.push_back(ideal[s].bits_per_sec());
  }
  fs_last_sample_ = now;
  if (measured.empty()) return;

  const double retention = stats::fair_share_retention(measured, reference);
  if (retention < fs_options_.bound) {
    std::ostringstream out;
    out << "compliant sessions retained " << retention
        << " of fair share over " << elapsed.to_string() << " (bound "
        << fs_options_.bound << ", " << measured.size() << " sessions)";
    add("fair-share-retention", out.str());
  }
}

void InvariantMonitor::check_buffer_budget() {
  for (std::size_t w = 0; w < net_->num_switches(); ++w) {
    const atm::Switch& sw = net_->node(w);
    const atm::BufferManager* bm = sw.buffer_manager();
    if (bm == nullptr) continue;
    if (!bm->within_budget()) {
      std::ostringstream out;
      out << sw.name() << ": " << bm->cells_in_use()
          << " cells in use exceeds effective budget "
          << bm->effective_budget() << " (squeeze grace "
          << bm->grace_cells() << ", level " << to_string(bm->level()) << ")";
      add("buffer-budget", out.str());
    }
  }
}

void InvariantMonitor::check_refusal_monotone() {
  if (prev_refused_.size() < net_->num_switches()) {
    prev_refused_.resize(net_->num_switches(), 0);
  }
  for (std::size_t w = 0; w < net_->num_switches(); ++w) {
    const std::uint64_t refused =
        net_->node(w).cac_counters().refused_total();
    if (refused < prev_refused_[w]) {
      add("refusal-monotonicity",
          net_->node(w).name() + ": refusal total went backwards (" +
              std::to_string(prev_refused_[w]) + " -> " +
              std::to_string(refused) + ")");
    }
    prev_refused_[w] = refused;
  }
}

void InvariantMonitor::enable_mcr_retention_check(McrRetentionOptions options) {
  mcr_options_ = std::move(options);
  if (mcr_options_.sessions.empty()) {
    for (std::size_t s = 0; s < net_->num_sessions(); ++s) {
      if (net_->source(s).params().mcr.bits_per_sec() > 0.0) {
        mcr_options_.sessions.push_back(s);
      }
    }
  }
  mcr_prev_delivered_.clear();
  for (const std::size_t s : mcr_options_.sessions) {
    mcr_prev_delivered_.push_back(net_->delivered_cells(s));
  }
  mcr_last_sample_ = sim_->now();
  mcr_enabled_ = true;
}

void InvariantMonitor::check_mcr_retention() {
  if (!mcr_enabled_) return;
  const sim::Time now = sim_->now();
  const sim::Time elapsed = now - mcr_last_sample_;
  if (elapsed < mcr_options_.window) return;

  for (std::size_t i = 0; i < mcr_options_.sessions.size(); ++i) {
    const std::size_t s = mcr_options_.sessions[i];
    const std::uint64_t delivered = net_->delivered_cells(s);
    const std::uint64_t delta = delivered - mcr_prev_delivered_[i];
    mcr_prev_delivered_[i] = delivered;
    const atm::AbrSource& src = net_->source(s);
    const double mcr = src.params().mcr.bits_per_sec();
    // An inactive session delivers nothing by design; a zero-MCR
    // session has no contracted minimum to retain.
    if (!src.active() || mcr <= 0.0) continue;
    // delivered_cells counts data cells only; every Nrm-th cell of the
    // allocation is an FRM, so scale goodput back up to wire rate.
    const double rm_overhead = static_cast<double>(src.params().nrm) /
                               static_cast<double>(src.params().nrm - 1);
    const double goodput = static_cast<double>(delta) * atm::kCellBits *
                           rm_overhead / elapsed.seconds();
    if (goodput < mcr_options_.bound * mcr) {
      std::ostringstream out;
      out << "session " << s << ": goodput " << goodput
          << " b/s below " << mcr_options_.bound << " x MCR (" << mcr
          << " b/s) over " << elapsed.to_string();
      add("mcr-retention", out.str());
    }
  }
  mcr_last_sample_ = now;
}

}  // namespace phantom::fault
