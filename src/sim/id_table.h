// Per-id state in a vector indexed by a small dense id.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace phantom::sim {

/// Per-id state indexed directly by id. The ids this library hands out
/// are small and dense — VC ids (topo::AbrNetwork) and TCP flow ids
/// (tcp::TcpNetwork) count up from 0 in creation order — so a vector
/// replaces a hash table: a lookup is one bounds check and one index,
/// and a walk visits entries in id order. The table grows to the
/// largest id stored and never shrinks. Negative ids are never present.
template <typename T>
class IdTable {
 public:
  /// The entry for `id`, or nullptr when there is none.
  [[nodiscard]] const T* find(int id) const {
    if (id < 0 || static_cast<std::size_t>(id) >= slots_.size()) return nullptr;
    const auto& slot = slots_[static_cast<std::size_t>(id)];
    return slot ? &*slot : nullptr;
  }
  [[nodiscard]] T* find(int id) {
    return const_cast<T*>(std::as_const(*this).find(id));
  }
  [[nodiscard]] bool contains(int id) const { return find(id) != nullptr; }

  /// The entry for `id`, value-initialized first if there is none.
  /// Throws std::out_of_range for a negative id.
  T& operator[](int id) {
    if (id < 0) throw std::out_of_range{"IdTable: negative id"};
    const auto i = static_cast<std::size_t>(id);
    if (i >= slots_.size()) slots_.resize(i + 1);
    if (!slots_[i]) {
      slots_[i].emplace();
      ++count_;
    }
    return *slots_[i];
  }

  /// Removes the entry for `id`; returns whether there was one.
  bool erase(int id) {
    if (!contains(id)) return false;
    slots_[static_cast<std::size_t>(id)].reset();
    --count_;
    return true;
  }

  /// Entries present.
  [[nodiscard]] std::size_t size() const { return count_; }

  /// Calls `f(id, entry)` for every entry in ascending id order. `f`
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

}  // namespace phantom::sim
