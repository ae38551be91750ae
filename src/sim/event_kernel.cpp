#include "sim/event_kernel.h"

namespace edgerep {

void TypedEventQueue::push(const SimEvent& ev) {
  assert(ev.time >= now_ && "TypedEventQueue: scheduling into the past");
  heap_.push_back(ev);
  sift_up(heap_.size() - 1);
  note_size();
}

void TypedEventQueue::post(const SimEvent& ev) {
  ring_.push_back(ev);
  const std::size_t occupied = ring_.size() - ring_head_;
  if (occupied > peak_ring_) peak_ring_ = occupied;
  note_size();
}

bool TypedEventQueue::pop_immediate(SimEvent* out) {
  if (ring_head_ == ring_.size()) return false;
  *out = ring_[ring_head_++];
  out->time = now_;  // immediates run at the current instant
  if (ring_head_ == ring_.size()) {
    ring_.clear();
    ring_head_ = 0;
  }
  ++popped_;
  return true;
}

bool TypedEventQueue::pop(SimEvent* out) {
  if (pop_immediate(out)) return true;
  if (heap_.empty()) return false;
  *out = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  now_ = out->time;
  ++popped_;
  return true;
}

void TypedEventQueue::sift_up(std::size_t i) {
  SimEvent ev = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!event_before(ev, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

void TypedEventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  SimEvent ev = heap_[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (event_before(heap_[c], heap_[best])) best = c;
    }
    if (!event_before(heap_[best], ev)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = ev;
}

FlightHandle FlightSlab::create() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Flight& f = slots_[slot];
  f.live = true;
  f.birth = births_++;
  f.prev = tail_;
  f.next = kNilSlot;
  if (tail_ != kNilSlot) {
    slots_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  return FlightHandle{slot, f.gen};
}

void FlightSlab::destroy(FlightHandle h) {
  Flight* f = get(h);
  assert(f != nullptr && "FlightSlab: destroying a stale handle");
  if (f == nullptr) return;
  if (f->prev != kNilSlot) {
    slots_[f->prev].next = f->next;
  } else {
    head_ = f->next;
  }
  if (f->next != kNilSlot) {
    slots_[f->next].prev = f->prev;
  } else {
    tail_ = f->prev;
  }
  f->live = false;
  ++f->gen;  // every outstanding handle to this slot is now stale
  --live_;
  free_.push_back(h.slot);
}

}  // namespace edgerep
