// Growable power-of-two ring buffer: the FIFO behind port queues and
// link delay lines.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace phantom::sim {

/// FIFO queue over one contiguous power-of-two buffer. Growth doubles
/// the buffer and unrolls the live items to its front; nothing else
/// allocates, so once a ring has reached its run's high-water mark
/// push/pop never touch the allocator again (std::deque, by contrast,
/// allocates a fresh chunk every few hundred bytes of traffic as the
/// queue slides through memory). The buffer never shrinks.
template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  [[nodiscard]] T& front() {
    assert(!empty());
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const {
    assert(!empty());
    return buf_[head_];
  }

  void push_back(const T& item) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = item;
    ++size_;
  }

  void pop_front() {
    assert(!empty());
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> bigger(buf_.empty() ? kInitialCapacity : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 16;

  std::vector<T> buf_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace phantom::sim
