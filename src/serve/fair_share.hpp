// Fair-share dispatch: the ordering layer that replaces FIFO in the
// broker's per-machine work queues.
//
// FairShareScheduler is start-time fair queueing (SFQ) over tenant weights
// and abstract "pending task" counts. Every tenant carries a virtual start
// time; dequeue picks the active tenant with the smallest one (ties to the
// lower id) and charges it 1/weight of virtual service. A tenant
// activating after idling fast-forwards to the scheduler's virtual clock
// (the start tag of the last dispatch), so sleeping never banks credit and
// a returning tenant cannot lock out the others while it drains its
// backlog. Over any busy interval each active tenant therefore receives
// dispatch slots proportional to its weight — the weighted max-min
// discipline of ytsaurus's fair_share_strategy, reduced to the single
// resource that matters here: task dispatch order. Selection scans the
// tenants linearly; with tens of tenants per machine queue that is cheaper
// than any heap maintenance.
//
// FairShareQueue<T> wraps the scheduler and per-tenant sub-queues behind
// the multi-producer multi-consumer contract the broker's workers rely on
// — non-blocking push, blocking pop, drain-on-close — with pop order across
// tenants fair-share, not arrival order (within a tenant it stays FIFO;
// with one tenant the queue is a plain FIFO). The queue itself is
// unbounded: what bounds it is token admission (see tenant.hpp), which
// caps each machine's tasks in flight before they are pushed here.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "serve/tenant.hpp"

namespace resex::serve {

/// The virtual clocks. Not thread-safe: the owning queue guards it with
/// its own mutex (and tests drive it single-threaded).
class FairShareScheduler {
 public:
  /// One tenant per weight, id = index; every weight must be > 0.
  explicit FairShareScheduler(const std::vector<double>& weights);

  /// Tenant `t` gained one pending task (an idle tenant activates, with
  /// vtime catch-up to the scheduler's clock).
  void onEnqueue(TenantId t);
  /// The next tenant a fair-share dispatch should serve, or nullopt when
  /// nothing is pending. Pure; does not charge.
  std::optional<TenantId> pickNext() const;
  /// Charges one dispatched task to `t` (which must have pending > 0) and
  /// advances the virtual clocks.
  void onDequeue(TenantId t);
  /// pickNext + onDequeue in one step.
  std::optional<TenantId> takeNext();

  std::size_t pending(TenantId t) const { return tenants_.at(t).pending; }
  std::size_t totalPending() const noexcept { return totalPending_; }
  std::size_t tenantCount() const noexcept { return tenants_.size(); }

 private:
  struct TenantNode {
    double weight = 1.0;
    double vtime = 0.0;
    std::size_t pending = 0;
  };

  std::vector<TenantNode> tenants_;
  /// Clock handed to tenants activating: the start tag of the most recent
  /// dispatch.
  double clock_ = 0.0;
  std::size_t totalPending_ = 0;
};

/// MPMC queue with fair-share pop ordering across tenant sub-queues (see
/// file comment); `T` moves through untouched.
template <typename T>
class FairShareQueue {
 public:
  explicit FairShareQueue(const std::vector<double>& weights)
      : scheduler_(weights), queues_(scheduler_.tenantCount()) {}

  FairShareQueue(const FairShareQueue&) = delete;
  FairShareQueue& operator=(const FairShareQueue&) = delete;

  /// Never blocks; returns false only once the queue is closed.
  bool push(T item, TenantId tenant) {
    {
      std::lock_guard lock(mutex_);
      if (closed_) return false;
      queues_.at(tenant).push_back(std::move(item));
      scheduler_.onEnqueue(tenant);
      ++size_;
    }
    notEmpty_.notify_one();
    return true;
  }

  /// Blocks while empty; after close() drains remaining items in
  /// fair-share order, then returns std::nullopt.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    notEmpty_.wait(lock, [this] { return size_ > 0 || closed_; });
    const std::optional<TenantId> tenant = scheduler_.takeNext();
    if (!tenant) return std::nullopt;  // closed and drained
    T item = std::move(queues_[*tenant].front());
    queues_[*tenant].pop_front();
    --size_;
    return item;
  }

  /// Rejects future pushes and wakes every waiter; queued items remain
  /// poppable (drain-on-close).
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    notEmpty_.notify_all();
  }

  /// Total depth across tenants.
  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return size_;
  }

  /// Depth of one tenant's sub-queue.
  std::size_t sizeOf(TenantId tenant) const {
    std::lock_guard lock(mutex_);
    return queues_.at(tenant).size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable notEmpty_;
  FairShareScheduler scheduler_;
  std::vector<std::deque<T>> queues_;
  std::size_t size_ = 0;
  bool closed_ = false;
};

}  // namespace resex::serve
