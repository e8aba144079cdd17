// ABR destination end system: RM-cell turnaround + EFCI latching.
#pragma once

#include <cstdint>

#include "atm/cell.h"
#include "atm/link.h"
#include "atm/vc_table.h"
#include "sim/simulator.h"
#include "stats/histogram.h"

namespace phantom::atm {

/// Destination end system. Forward RM cells are turned around as
/// backward RM cells onto the reverse path. Per TM 4.0, the destination
/// latches the EFCI state of the most recent data cell of each VC and
/// copies it into the CI bit of the next turned-around RM cell — this is
/// the path by which EFCI marking at switches reaches the source.
///
/// Per-VC state here is fine: a destination only tracks its *own*
/// sessions; the constant-space requirement applies to switch ports.
class AbrDestination final : public CellSink {
 public:
  AbrDestination(sim::Simulator& sim, Link to_network)
      : sim_{&sim}, link_{to_network} {
    (void)sim_;
  }

  AbrDestination(const AbrDestination&) = delete;
  AbrDestination& operator=(const AbrDestination&) = delete;

  void receive_cell(Cell cell) override;

  [[nodiscard]] std::uint64_t data_cells_received(int vc) const {
    const VcState* st = per_vc_.find(vc);
    return st == nullptr ? 0 : st->data_cells;
  }
  [[nodiscard]] std::uint64_t total_data_cells() const { return total_data_; }
  [[nodiscard]] std::uint64_t rm_cells_turned() const { return rm_turned_; }

  /// AAL5 frame accounting (cells arrive in order on a VC, so a frame
  /// closes when its EOM cell arrives or when the next frame's first
  /// cell does): a frame is good only if the EOM arrived and every one
  /// of its `frame_len` cells did. A switch dropping mid-frame without
  /// PPD corrupts the frame even though most of its cells consumed link
  /// capacity — the frame-level goodput the overload figures plot.
  [[nodiscard]] std::uint64_t frames_good(int vc) const {
    const VcState* st = per_vc_.find(vc);
    return st == nullptr ? 0 : st->frames_good;
  }
  [[nodiscard]] std::uint64_t frames_corrupted(int vc) const {
    const VcState* st = per_vc_.find(vc);
    return st == nullptr ? 0 : st->frames_corrupted;
  }
  [[nodiscard]] std::uint64_t total_frames_good() const {
    return total_frames_good_;
  }
  [[nodiscard]] std::uint64_t total_frames_corrupted() const {
    return total_frames_corrupted_;
  }
  /// Reverse access link carrying turned-around RM cells back into the
  /// network (shared fault state, see LinkState).
  [[nodiscard]] Link& link() { return link_; }
  [[nodiscard]] const Link& link() const { return link_; }

  /// End-to-end delay distribution (ms) of received data cells; the
  /// paper's "moderate queue" claim, expressed in time. Bins cover
  /// [0, 100 ms); later spikes land in the overflow bin.
  [[nodiscard]] const stats::Histogram& delay_histogram() const {
    return delays_;
  }

  /// Per-VC delay statistics (ms); zero for unknown VCs.
  [[nodiscard]] double mean_delay_ms(int vc) const {
    const VcState* st = per_vc_.find(vc);
    return st == nullptr || st->data_cells == 0
               ? 0.0
               : st->delay_sum_ms / static_cast<double>(st->data_cells);
  }
  [[nodiscard]] double max_delay_ms(int vc) const {
    const VcState* st = per_vc_.find(vc);
    return st == nullptr ? 0.0 : st->delay_max_ms;
  }

 private:
  struct VcState {
    bool efci_latched = false;
    std::uint64_t data_cells = 0;
    double delay_sum_ms = 0.0;
    double delay_max_ms = 0.0;
    bool frame_open = false;        // cells of cur_frame_id seen, no EOM yet
    std::uint32_t cur_frame_id = 0;
    std::uint32_t cur_frame_cells = 0;
    std::uint64_t frames_good = 0;
    std::uint64_t frames_corrupted = 0;
  };

  void account_frame(VcState& st, const Cell& cell);

  sim::Simulator* sim_;
  Link link_;
  VcTable<VcState> per_vc_;
  std::uint64_t total_data_ = 0;
  std::uint64_t rm_turned_ = 0;
  std::uint64_t total_frames_good_ = 0;
  std::uint64_t total_frames_corrupted_ = 0;
  stats::Histogram delays_{100.0, 1000};  // ms, 0.1 ms bins
};

}  // namespace phantom::atm
