#include "sim/timer.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace phantom::sim {

Timer::Timer(Simulator& sim, Callback on_fire)
    : sim_{&sim}, on_fire_{std::move(on_fire)} {
  if (!on_fire_) throw std::invalid_argument{"Timer needs a callback"};
}

void Timer::file(Reservation key) {
  filed_key_ = key;
  filed_ = sim_->schedule(key, bind_member<&Timer::wake>(this));
}

void Timer::wake() {
  filed_ = {};
  if (armed_ && deadline_.seq == filed_key_.seq) {
    armed_ = false;
    on_fire_();
    return;
  }
  ++wakeups_;
  if (!armed_) return;
  // The deadline moved later after this event was filed. Its key was
  // drawn after this one's, so it still orders after the running event.
  assert(filed_key_.at <= deadline_.at && filed_key_.seq < deadline_.seq);
  file(deadline_);
}

}  // namespace phantom::sim
