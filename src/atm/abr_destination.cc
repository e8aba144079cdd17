#include "atm/abr_destination.h"

namespace phantom::atm {

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
      ++total_frames_good_;
    } else {
      ++st.frames_corrupted;
      ++total_frames_corrupted_;
    }
  }
}

void AbrDestination::receive_cell(Cell cell) {
  switch (cell.kind) {
    case CellKind::kData: {
      VcState& st = per_vc_[cell.vc];
      st.efci_latched = cell.efci;
      ++st.data_cells;
      ++total_data_;
      account_frame(st, cell);
      const double delay_ms = (sim_->now() - cell.sent_at).milliseconds();
      st.delay_sum_ms += delay_ms;
      if (delays_ != nullptr) delays_->add(delay_ms);
      break;
    }
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
