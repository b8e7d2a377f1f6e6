// Bounded, closeable MPMC channel for sim tasks — the backbone of the
// producer/consumer structures in the paper's shuffle engines
// (DataRequestQueue, DataToMergeQueue, DataToReduceQueue).
//
// recv() yields std::optional<T>: nullopt means the channel was closed
// and fully drained, the idiomatic daemon-shutdown signal.
#pragma once

#include <coroutine>
#include <optional>
#include <utility>

#include "sim/engine.h"
#include "sim/fifo.h"

namespace hmr::sim {

template <typename T>
class Channel {
 public:
  Channel(Engine& engine, size_t capacity)
      : engine_(engine), capacity_(capacity) {
    HMR_CHECK_MSG(capacity_ > 0, "channel capacity must be positive");
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return capacity_; }
  bool closed() const { return closed_; }
  bool empty() const { return buffer_.empty(); }
  // Slots held by the buffer and the parked-task queues: 0 until the
  // first item is buffered or a task parks (sim/fifo.h).
  size_t queue_capacity() const {
    return buffer_.capacity() + senders_.capacity() + receivers_.capacity();
  }

  // Awaitable send. Sending on a closed channel is a programming error.
  auto send(T value) {
    struct Awaiter {
      Channel& channel;
      T value;
      bool parked = false;
      bool await_ready() {
        HMR_CHECK_MSG(!channel.closed_, "send on closed channel");
        return channel.senders_.empty() &&
               channel.buffer_.size() < channel.capacity_;
      }
      void await_suspend(std::coroutine_handle<> h) {
        parked = true;
        channel.senders_.push_back({h, &value});
      }
      void await_resume() {
        // Parked senders are drained by recv()/close() which move the value
        // out through the registered slot before rescheduling us.
        if (!parked) channel.push(std::move(value));
      }
    };
    return Awaiter{*this, std::move(value)};
  }

  // Awaitable receive; nullopt once closed and drained.
  auto recv() {
    struct Awaiter {
      Channel& channel;
      std::optional<T> value;
      bool parked = false;
      bool await_ready() {
        return !channel.buffer_.empty() || channel.closed_;
      }
      void await_suspend(std::coroutine_handle<> h) {
        parked = true;
        channel.receivers_.push_back({h, &value});
      }
      std::optional<T> await_resume() {
        if (!parked) {
          if (!channel.buffer_.empty()) {
            value = std::move(channel.buffer_.front());
            channel.buffer_.pop_front();
            channel.admit_parked_sender();
          }
          // else: closed and drained -> nullopt
        }
        return std::move(value);
      }
    };
    return Awaiter{*this, std::nullopt, false};
  }

  // Non-suspending send: delivers if a receiver is parked or buffer space
  // exists; returns false when full or closed (callers drop or retry).
  bool try_send(T value) {
    if (closed_) return false;
    if (!senders_.empty() || buffer_.size() >= capacity_) {
      if (receivers_.empty()) return false;
    }
    push(std::move(value));
    return true;
  }

  // Non-suspending receive: a buffered item if any, else nullopt (does not
  // distinguish empty from closed — callers poll).
  std::optional<T> try_recv() {
    if (buffer_.empty()) return std::nullopt;
    T value = std::move(buffer_.front());
    buffer_.pop_front();
    admit_parked_sender();
    return value;
  }

  // Closes the channel: parked receivers beyond the buffered items get
  // nullopt; future recv() drains the buffer then yields nullopt.
  void close() {
    if (closed_) return;
    closed_ = true;
    HMR_CHECK_MSG(senders_.empty(), "close with parked senders");
    while (!receivers_.empty()) {
      ReceiverNode node = receivers_.front();
      receivers_.pop_front();
      if (!buffer_.empty()) {
        *node.slot = std::move(buffer_.front());
        buffer_.pop_front();
      }
      engine_.schedule_now(node.handle);
    }
  }

 private:
  struct SenderNode {
    std::coroutine_handle<> handle;
    T* slot;
  };
  struct ReceiverNode {
    std::coroutine_handle<> handle;
    std::optional<T>* slot;
  };

  void push(T value) {
    if (!receivers_.empty()) {
      ReceiverNode node = receivers_.front();
      receivers_.pop_front();
      *node.slot = std::move(value);
      engine_.schedule_now(node.handle);
      return;
    }
    buffer_.push_back(std::move(value));
  }

  // After a buffered item is consumed, promote the oldest parked sender.
  void admit_parked_sender() {
    if (senders_.empty() || buffer_.size() >= capacity_) return;
    SenderNode node = senders_.front();
    senders_.pop_front();
    buffer_.push_back(std::move(*node.slot));
    engine_.schedule_now(node.handle);
  }

  Engine& engine_;
  size_t capacity_;
  bool closed_ = false;
  Fifo<T> buffer_;
  Fifo<SenderNode> senders_;
  Fifo<ReceiverNode> receivers_;
};

}  // namespace hmr::sim
