// Bounded switch cell memory: one hard budget per switch, shared by all
// ports, with frame-aware discard when it runs short.
//
// The reproduction's output ports each had a private queue_limit, which
// bounds one queue but not the switch: a box with 16 ports and 1000-cell
// limits can still hold 16000 cells, and nothing relates that number to
// the memory a real switch actually has. The BufferManager owns the
// switch-wide budget and decides, per arriving cell, whether buffering
// it is worth the memory:
//
//  * Dynamic per-port partitioning (Choudhury & Hahne): a port may hold
//    at most alpha * (budget - total_in_use) cells, so an overloaded
//    port's allowance shrinks exactly as the switch fills and no static
//    carve-up strands memory on idle ports.
//  * A guaranteed-class reservation: the top `guaranteed_fraction` of
//    the budget is reachable only by high-priority (CBR/VBR) cells and
//    by MCR-protected frames, so elastic ABR overload cannot evict the
//    traffic the switch contracted to carry.
//  * Early Packet Discard: above `epd_fraction` occupancy, *new* frames
//    are refused at their first cell. Dropping a whole frame costs the
//    sender one frame; dropping one mid-frame cell costs the receiver
//    the whole frame anyway while the remaining cells still burn buffer
//    and link capacity downstream [RF95-style EPD, see PAPERS.md].
//  * Partial Packet Discard: once any cell of a frame is lost, the rest
//    of that frame's cells are dropped too — except the EOM cell, which
//    is forwarded so the receiver can delimit (and discard) the corrupt
//    frame immediately instead of folding it into the next one.
//  * MCR protection: per-VC token buckets at the admitted MCR mark
//    frames inside the minimum-rate contract as protected; protected
//    frames bypass EPD and shedding and are dropped only on true budget
//    exhaustion. This is the "never starve an admitted VC below MCR"
//    rung of the degradation ladder.
//
// RM cells never carry frames and are exempt from EPD/shedding (losing
// control traffic under overload is how overload becomes collapse); they
// are still counted against the budget and drop on hard exhaustion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atm/cell.h"
#include "atm/vc_table.h"
#include "obs/metrics.h"
#include "sim/time.h"

namespace phantom::atm {

struct BufferConfig {
  /// Hard switch-wide cell memory, in cells. Every queued cell on every
  /// port of the switch counts against it.
  std::size_t budget_cells = 8192;
  /// Fraction of the budget reachable only by guaranteed-class cells
  /// and MCR-protected frames (the reservation elastic traffic cannot
  /// touch).
  double guaranteed_fraction = 0.10;
  /// Choudhury–Hahne dynamic-threshold factor: a port may occupy at
  /// most alpha * (budget - total_in_use) cells. A single hot port
  /// saturates at alpha/(1+alpha) of the budget, so alpha must be
  /// large enough that this cap sits above shed_fraction — otherwise
  /// the EPD/shed rungs are unreachable on a one-bottleneck switch and
  /// every discard degrades to mid-frame overflow. 8 puts the cap at
  /// ~0.89 while still collapsing to a fair split when several ports
  /// heat up (k hot ports share k*alpha/(1+k*alpha) of the budget).
  double alpha = 8.0;
  /// Occupancy fraction (of the effective budget) at which EPD starts
  /// refusing new elastic frames.
  double epd_fraction = 0.70;
  /// Occupancy fraction at which the switch sheds elastic traffic
  /// mid-frame (the last rung before exhaustion).
  double shed_fraction = 0.85;
  /// Ablation switch: EPD off degenerates to tail-dropping individual
  /// cells at the budget, which is exactly the goodput cliff the
  /// overload figure measures.
  bool epd = true;

  /// Throws std::invalid_argument on an inconsistent configuration.
  void validate() const;
};

/// How full the switch is, as a ladder of increasingly lossy modes. The
/// level is derived from occupancy, so it falls back down as queues
/// drain — degradation is a mode, not a ratchet.
enum class DegradationLevel {
  kNormal,        ///< below the EPD threshold; no frame-aware discard
  kEarlyDiscard,  ///< EPD refusing new elastic frames
  kShedding,      ///< dropping elastic cells mid-frame (PPD cleanup)
  kExhausted,     ///< at the hard budget; only departures make room
};

[[nodiscard]] std::string to_string(DegradationLevel level);

/// Per-switch bounded cell memory with frame-aware discard. Ports call
/// `admit` before queueing and `release` after transmitting; everything
/// else is bookkeeping the overload experiments and invariants read.
class BufferManager {
 public:
  enum class Verdict {
    kAccept,        ///< buffer the cell
    kDropOverflow,  ///< hard budget / partition exhaustion
    kDropEpd,       ///< EPD refused the frame at its first cell
    kDropPpd,       ///< PPD discarding the tail of a damaged frame
    kDropShed,      ///< shedding elastic traffic above the shed threshold
  };

  explicit BufferManager(BufferConfig config = {});

  /// Registers a port and returns its id (dense, starting at 0).
  [[nodiscard]] int register_port();

  /// Decides whether `port` may buffer `cell` at time `now`, updating
  /// occupancy and discard state. kAccept means the caller MUST queue
  /// the cell and later call `release` for it.
  [[nodiscard]] Verdict admit(int port, const Cell& cell, sim::Time now);

  /// Returns the memory of a transmitted cell. `port` and `cell` must
  /// match a prior accepted `admit`.
  void release(int port, const Cell& cell);

  /// Registers VC's admitted MCR: frames within this rate's token
  /// bucket are protected from EPD/shedding. A zero MCR (or never
  /// calling this) leaves the VC fully elastic.
  void set_vc_mcr(int vc, sim::Rate mcr, sim::Time now);

  /// Drops a VC's frame/MCR state (session teardown / reaper sweep).
  /// Returns whether the VC had state to evict.
  bool evict_vc(int vc);

  /// The memsqueeze fault: shrinks the effective budget to
  /// `fraction` of the configured one (fraction in (0, 1]). Cells
  /// already buffered above the new budget are not evicted — they
  /// drain, and the grace high-water mark below tracks that the excess
  /// only ever shrinks.
  void squeeze(double fraction);
  void unsqueeze() { squeeze(1.0); }

  [[nodiscard]] const BufferConfig& config() const { return config_; }
  [[nodiscard]] std::size_t effective_budget() const;
  [[nodiscard]] double squeeze_fraction() const { return squeeze_fraction_; }
  [[nodiscard]] std::size_t cells_in_use() const { return in_use_; }
  [[nodiscard]] std::size_t cells_in_use(int port) const;
  [[nodiscard]] std::size_t peak_cells_in_use() const { return peak_; }

  /// The budget invariant, squeeze-aware: occupancy never exceeds the
  /// effective budget except for cells buffered before a squeeze, and
  /// that grace excess must shrink monotonically as they drain.
  [[nodiscard]] bool within_budget() const {
    return in_use_ <= std::max(effective_budget(), grace_);
  }
  /// Transient allowance for cells buffered before the last squeeze
  /// (equals the budget when no squeeze debt remains).
  [[nodiscard]] std::size_t grace_cells() const { return grace_; }

  [[nodiscard]] DegradationLevel level() const;
  /// Worst level reached so far (for reports; `level()` itself recovers
  /// as queues drain).
  [[nodiscard]] DegradationLevel worst_level() const { return worst_level_; }

  [[nodiscard]] std::uint64_t frames_epd_discarded() const {
    return epd_frames_;
  }
  [[nodiscard]] std::uint64_t cells_ppd_discarded() const {
    return ppd_cells_;
  }
  [[nodiscard]] std::uint64_t cells_shed() const { return shed_cells_; }
  [[nodiscard]] std::uint64_t cells_overflow_dropped() const {
    return overflow_cells_;
  }
  [[nodiscard]] std::uint64_t cells_accepted() const { return accepted_; }
  /// Cells admitted under MCR protection (inside their VC's token
  /// bucket) — the traffic the ladder must never shed.
  [[nodiscard]] std::uint64_t mcr_protected_cells() const {
    return protected_cells_;
  }
  [[nodiscard]] std::size_t tracked_vcs() const { return vcs_.size(); }

  /// Registers the discard ladder's counters and occupancy gauges
  /// under `prefix`.
  void register_metrics(obs::Registry& reg, const std::string& prefix);

 private:
  struct VcState {
    double mcr_cells_per_sec = 0.0;
    double tokens = 0.0;   ///< MCR credit, in cells
    double token_cap = 2.0;
    sim::Time last_refill = sim::Time::zero();
    bool in_frame = false;
    std::uint32_t cur_frame = 0;
    bool discarding = false;       ///< EPD/PPD: drop the rest of cur_frame
    bool epd_frame = false;        ///< cur_frame was EPD-refused whole
    bool head_accepted = false;    ///< any cell of cur_frame buffered?
    bool protected_frame = false;  ///< cur_frame rides on MCR credit
  };

  [[nodiscard]] bool frame_fits_mcr(VcState& st, const Cell& cell,
                                    sim::Time now);
  void account_accept(int port, const Cell& cell);
  void note_level();

  BufferConfig config_;
  double squeeze_fraction_ = 1.0;
  std::size_t in_use_ = 0;
  std::size_t peak_ = 0;
  std::size_t grace_ = 0;  ///< squeeze debt: pre-squeeze cells not yet drained
  std::vector<std::size_t> port_in_use_;
  VcTable<VcState> vcs_;
  DegradationLevel worst_level_ = DegradationLevel::kNormal;
  std::uint64_t epd_frames_ = 0;
  std::uint64_t ppd_cells_ = 0;
  std::uint64_t shed_cells_ = 0;
  std::uint64_t overflow_cells_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t protected_cells_ = 0;
};

}  // namespace phantom::atm
