#include "atm/abr_destination.h"

#include <cassert>

namespace phantom::atm {

void LinkState::arrive_quiet(const Cell& cell, sim::Time at) {
  ++counters_.delivered;
  reader->receive_data(cell, at);
}

void AbrDestination::register_input(LinkState& input) {
  assert(input.sink == this && input.reader == nullptr);
  input.reader = delays_ == nullptr ? this : nullptr;
  inputs_.push_back(&input);
}

void AbrDestination::set_delay_histogram(obs::Histogram* delays) {
  for (LinkState* input : inputs_) {
    // Cells that arrived before now were received without the
    // histogram; from the first one left on, each files its event.
    if (delays != nullptr) input->line.wake();
    input->reader = delays == nullptr ? this : nullptr;
  }
  delays_ = delays;
}

void AbrDestination::account_frame(VcState& st, const Cell& cell) {
  if (st.frame_open && cell.frame != st.cur_frame_id) {
    // A new frame started before the previous one's EOM arrived: a
    // mid-frame drop (or a dropped EOM) corrupted it.
    ++st.frames_corrupted;
    ++total_frames_corrupted_;
    st.frame_open = false;
  }
  if (!st.frame_open) {
    st.frame_open = true;
    st.cur_frame_id = cell.frame;
    st.cur_frame_cells = 0;
  }
  ++st.cur_frame_cells;
  if (cell.eof) {
    st.frame_open = false;
    const bool complete = st.cur_frame_cells == cell.frame_len;
    if (complete) {
      ++st.frames_good;
    } else {
      ++st.frames_corrupted;
      ++total_frames_corrupted_;
    }
  }
}

void AbrDestination::receive_data(const Cell& cell, sim::Time at) {
  VcState& st = per_vc_[cell.vc];
  st.efci_latched = cell.efci;
  ++st.data_cells;
  ++total_data_;
  account_frame(st, cell);
  const double delay_ms = (at - cell.sent_at).milliseconds();
  st.delay_sum_ms += delay_ms;
  if (delays_ != nullptr) delays_->observe(delay_ms);
}

void AbrDestination::receive_cell(Cell cell) {
  switch (cell.kind) {
    case CellKind::kData:
      receive_data(cell, sim_->now());
      break;
    case CellKind::kForwardRm: {
      VcState& st = per_vc_[cell.vc];
      Cell brm = cell;
      brm.kind = CellKind::kBackwardRm;
      brm.ci = cell.ci || st.efci_latched;
      ++rm_turned_;
      link_.deliver(brm);
      break;
    }
    case CellKind::kBackwardRm:
      // A destination never receives backward RM cells; ignore.
      break;
  }
}

}  // namespace phantom::atm
