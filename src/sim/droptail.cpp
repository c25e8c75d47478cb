#include "sim/droptail.h"

#include "util/error.h"

namespace dcl::sim {

DropTailQueue::DropTailQueue(std::size_t capacity_bytes,
                             std::size_t capacity_pkts)
    : capacity_(capacity_bytes), capacity_pkts_(capacity_pkts) {
  DCL_ENSURE(capacity_bytes > 0);
}

bool DropTailQueue::try_enqueue(const Packet& p, Time /*now*/) {
  count_arrival(p.type);
  if (backlog_ + p.size_bytes > capacity_ ||
      (capacity_pkts_ > 0 && q_.size() >= capacity_pkts_)) {
    count_drop(p.type);
    return false;
  }
  backlog_ += p.size_bytes;
  q_.push_back(p);
  note_backlog(backlog_, q_.size());
  return true;
}

std::optional<Packet> DropTailQueue::dequeue(Time /*now*/) {
  if (q_.empty()) return std::nullopt;
  const Packet p = q_.pop_front();
  backlog_ -= p.size_bytes;
  return p;
}

}  // namespace dcl::sim
