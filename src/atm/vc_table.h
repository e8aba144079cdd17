// Per-VC state in a vector indexed by VC id.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace phantom::atm {

/// Per-VC state indexed directly by VC id. VC ids are small and dense
/// (topo::AbrNetwork hands them out from 0 in creation order), so a
/// vector replaces a hash table: a lookup is one bounds check and one
/// index, and a walk visits VCs in id order. The table grows to the
/// largest id stored and never shrinks. Negative ids are never present.
template <typename T>
class VcTable {
 public:
  /// The entry for `vc`, or nullptr when there is none.
  [[nodiscard]] const T* find(int vc) const {
    if (vc < 0 || static_cast<std::size_t>(vc) >= slots_.size()) return nullptr;
    const auto& slot = slots_[static_cast<std::size_t>(vc)];
    return slot ? &*slot : nullptr;
  }
  [[nodiscard]] T* find(int vc) {
    return const_cast<T*>(std::as_const(*this).find(vc));
  }
  [[nodiscard]] bool contains(int vc) const { return find(vc) != nullptr; }

  /// The entry for `vc`, value-initialized first if there is none.
  /// Throws std::out_of_range for a negative id.
  T& operator[](int vc) {
    if (vc < 0) throw std::out_of_range{"VcTable: negative VC id"};
    const auto i = static_cast<std::size_t>(vc);
    if (i >= slots_.size()) slots_.resize(i + 1);
    if (!slots_[i]) {
      slots_[i].emplace();
      ++count_;
    }
    return *slots_[i];
  }

  /// Removes the entry for `vc`; returns whether there was one.
  bool erase(int vc) {
    if (!contains(vc)) return false;
    slots_[static_cast<std::size_t>(vc)].reset();
    --count_;
    return true;
  }

  /// Entries present.
  [[nodiscard]] std::size_t size() const { return count_; }

  /// Calls `f(vc, entry)` for every entry in ascending VC order. `f`
  /// may erase entries but must not add any.
  template <typename F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i]) f(static_cast<int>(i), *slots_[i]);
    }
  }

 private:
  std::vector<std::optional<T>> slots_;
  std::size_t count_ = 0;
};

}  // namespace phantom::atm
