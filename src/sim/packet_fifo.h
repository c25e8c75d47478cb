// FIFO of packets on a power-of-two ring buffer. It doubles when full and
// never shrinks, so a queue that has reached its working depth stores and
// removes packets without touching the allocator (std::deque allocates and
// frees a block every few hundred bytes of churn).
#pragma once

#include <cstddef>
#include <vector>

#include "sim/packet.h"

namespace dcl::sim {

class PacketFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(const Packet& p) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = p;
    ++size_;
  }

  // Removes and returns the head packet; the FIFO must not be empty.
  Packet pop_front() {
    const Packet p = buf_[head_];
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return p;
  }

 private:
  void grow() {
    std::vector<Packet> bigger(buf_.empty() ? 8 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    buf_.swap(bigger);
    head_ = 0;
  }

  std::vector<Packet> buf_;  // capacity is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dcl::sim
