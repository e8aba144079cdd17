// ABR destination end system: RM-cell turnaround + EFCI latching.
#pragma once

#include <cstdint>
#include <vector>

#include "atm/cell.h"
#include "atm/link.h"
#include "obs/metrics.h"
#include "sim/id_table.h"
#include "sim/simulator.h"

namespace phantom::atm {

/// Destination end system. Forward RM cells are turned around as
/// backward RM cells onto the reverse path. Per TM 4.0, the destination
/// latches the EFCI state of the most recent data cell of each VC and
/// copies it into the CI bit of the next turned-around RM cell — this is
/// the path by which EFCI marking at switches reaches the source.
///
/// Per-VC state here is fine: a destination only tracks its *own*
/// sessions; the constant-space requirement applies to switch ports.
///
/// A data cell only bumps counters here, so a link registered with
/// register_input hands its data cells over without an arrival event
/// (quiet cells, see sim::DelayLine). Every accessor first catches up
/// those inputs, so it reads what the evented link would have delivered
/// by then.
class AbrDestination final : public CellSink {
 public:
  AbrDestination(sim::Simulator& sim, Link to_network)
      : sim_{&sim}, link_{to_network} {}

  AbrDestination(const AbrDestination&) = delete;
  AbrDestination& operator=(const AbrDestination&) = delete;

  void receive_cell(Cell cell) override;

  /// Makes this destination the reader of `input`, a link whose sink it
  /// is, fed by a FIFO port or an end system: the link's data cells
  /// then arrive without a kernel event while its fault model draws
  /// nothing. The link must outlive every read of this destination.
  void register_input(LinkState& input);

  [[nodiscard]] std::uint64_t data_cells_received(int vc) const {
    catch_up();
    const VcState* st = per_vc_.find(vc);
    return st == nullptr ? 0 : st->data_cells;
  }
  [[nodiscard]] std::uint64_t total_data_cells() const {
    catch_up();
    return total_data_;
  }
  [[nodiscard]] std::uint64_t rm_cells_turned() const {
    catch_up();
    return rm_turned_;
  }

  /// AAL5 frame accounting (cells arrive in order on a VC, so a frame
  /// closes when its EOM cell arrives or when the next frame's first
  /// cell does): a frame is good only if the EOM arrived and every one
  /// of its `frame_len` cells did. A switch dropping mid-frame without
  /// PPD corrupts the frame even though most of its cells consumed link
  /// capacity — the frame-level goodput the overload figures plot.
  [[nodiscard]] std::uint64_t frames_good(int vc) const {
    catch_up();
    const VcState* st = per_vc_.find(vc);
    return st == nullptr ? 0 : st->frames_good;
  }
  [[nodiscard]] std::uint64_t frames_corrupted(int vc) const {
    catch_up();
    const VcState* st = per_vc_.find(vc);
    return st == nullptr ? 0 : st->frames_corrupted;
  }
  [[nodiscard]] std::uint64_t total_frames_corrupted() const {
    catch_up();
    return total_frames_corrupted_;
  }
  /// Reverse access link carrying turned-around RM cells back into the
  /// network (shared fault state, see LinkState).
  [[nodiscard]] Link& link() { return link_; }
  [[nodiscard]] const Link& link() const { return link_; }

  /// Attaches a caller-owned histogram (nullptr detaches) that gets
  /// the end-to-end delay (ms) of every data cell received from then
  /// on: the paper's "moderate queue" claim, expressed in time. The
  /// caller reads the histogram directly, so while one is attached
  /// every data cell keeps its arrival event.
  void set_delay_histogram(obs::Histogram* delays);

  /// Mean end-to-end delay (ms) of a VC's data cells; zero for unknown
  /// VCs.
  [[nodiscard]] double mean_delay_ms(int vc) const {
    catch_up();
    const VcState* st = per_vc_.find(vc);
    return st == nullptr || st->data_cells == 0
               ? 0.0
               : st->delay_sum_ms / static_cast<double>(st->data_cells);
  }

 private:
  struct VcState {
    bool efci_latched = false;
    std::uint64_t data_cells = 0;
    double delay_sum_ms = 0.0;
    bool frame_open = false;        // cells of cur_frame_id seen, no EOM yet
    std::uint32_t cur_frame_id = 0;
    std::uint32_t cur_frame_cells = 0;
    std::uint64_t frames_good = 0;
    std::uint64_t frames_corrupted = 0;
  };

  friend struct LinkState;  // hands quiet cells to receive_data

  void account_frame(VcState& st, const Cell& cell);
  /// A data cell that arrived at `at`.
  void receive_data(const Cell& cell, sim::Time at);
  /// Const: it hands over only cells that have arrived already.
  void catch_up() const {
    for (LinkState* input : inputs_) input->catch_up();
  }

  sim::Simulator* sim_;
  Link link_;
  std::vector<LinkState*> inputs_;  // registered, see register_input
  sim::IdTable<VcState> per_vc_;
  std::uint64_t total_data_ = 0;
  std::uint64_t rm_turned_ = 0;
  std::uint64_t total_frames_corrupted_ = 0;
  obs::Histogram* delays_ = nullptr;
};

}  // namespace phantom::atm
