// Lazy ring FIFO: the queue storage of the sim primitives (Channel,
// Event, Resource) and of the other per-object queues on the event path.
//
// A power-of-two ring over raw storage. It allocates nothing until the
// first push_back, which takes one slot; it doubles when full and never
// shrinks, constructs each element in place and destroys it on
// pop_front. An idle queue therefore owns no memory: a libstdc++ deque
// allocates a 512-byte node and its map on construction, which is most
// of the footprint of a reducer's per-map-output streams (DESIGN.md
// §6.3, "queue storage"). Most of those queues never hold more than one
// element, hence the one-slot start.
//
// Unlike a deque, growing the ring moves its elements, so a reference
// to an element is valid only until the next push_back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/status.h"

namespace hmr::sim {

template <typename T>
class Fifo {
 public:
  Fifo() = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() {
    while (size_ > 0) pop_front();
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  // Slots allocated; 0 until the first push_back.
  size_t capacity() const { return capacity_; }

  T& front() {
    HMR_CHECK(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    HMR_CHECK(size_ > 0);
    return slots_[head_];
  }
  const T& back() const {
    HMR_CHECK(size_ > 0);
    return slots_[(head_ + size_ - 1) & (capacity_ - 1)];
  }

  void push_back(const T& value) { append(value); }
  void push_back(T&& value) { append(std::move(value)); }

  void pop_front() {
    HMR_CHECK(size_ > 0);
    std::destroy_at(slots_ + head_);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

 private:
  static constexpr std::uint32_t kFirstCapacity = 1;

  template <typename U>
  void append(U&& value) {
    if (size_ == capacity_) {
      grow(std::forward<U>(value));
      return;
    }
    std::construct_at(slots_ + ((head_ + size_) & (capacity_ - 1)),
                      std::forward<U>(value));
    ++size_;
  }

  // Doubles the ring and appends `value`. The new element is built
  // before the old ones move, so `value` may alias one of them.
  template <typename U>
  void grow(U&& value) {
    HMR_CHECK_MSG(capacity_ <= UINT32_MAX / 2, "Fifo capacity overflow");
    const std::uint32_t capacity =
        capacity_ == 0 ? kFirstCapacity : 2 * capacity_;
    T* slots = std::allocator<T>().allocate(capacity);
    std::construct_at(slots + size_, std::forward<U>(value));
    for (std::uint32_t i = 0; i < size_; ++i) {
      T* old = slots_ + ((head_ + i) & (capacity_ - 1));
      std::construct_at(slots + i, std::move(*old));
      std::destroy_at(old);
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
    ++size_;
  }

  // 32-bit counts keep the ring at 24 bytes, not 32: each of a
  // reducer's per-map-output streams holds seven rings.
  T* slots_ = nullptr;
  std::uint32_t capacity_ = 0;  // 0 or a power of two
  std::uint32_t head_ = 0;      // slot of the front element
  std::uint32_t size_ = 0;
};

}  // namespace hmr::sim
