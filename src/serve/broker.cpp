#include "serve/broker.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <stdexcept>

#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "util/histogram.hpp"
#include "util/json_writer.hpp"

namespace resex::serve {
namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point from, Clock::time_point to) noexcept {
  return std::chrono::duration<double>(to - from).count();
}

obs::Counter& queriesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("serve.queries");
  return c;
}
obs::Counter& expiredCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.expired_queries");
  return c;
}
obs::Counter& shedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("serve.shed_tasks");
  return c;
}
obs::Counter& rejectedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.rejected_queries");
  return c;
}
obs::Counter& remapCounter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("serve.remaps");
  return c;
}
obs::Histogram& latencyHistogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("serve.query_latency_us");
  return h;
}
obs::Gauge& peakDepthGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("serve.queue_depth_peak");
  return g;
}

}  // namespace

/// Shared state of one in-flight query. Lifetime is managed by shared_ptr:
/// every queued task holds a reference and the deadline timer another, so
/// a query that expires never invalidates a worker's view. Delivery is
/// push-based: whoever brings `remaining` to zero — or the timer at the
/// deadline — calls QueryBroker::deliver, which merges, accounts, and
/// invokes the completion exactly once (the `delivered` flag arbitrates).
struct QueryBroker::PendingQuery {
  explicit PendingQuery(ResultKey queryKey) : key(std::move(queryKey)) {}

  std::mutex mutex;
  /// The canonical query: the terms workers execute and the cache key.
  const ResultKey key;
  TenantId tenant = 0;
  bool hasDeadline = false;
  Clock::time_point t0{};
  Clock::time_point deadline{};
  /// Guarded by `mutex`.
  std::vector<std::vector<ScoredDoc>> partials;
  std::uint32_t answered = 0;
  std::size_t remaining = 0;
  bool delivered = false;
  /// Set when the deadline fired; workers read it relaxed before
  /// executing as a load-shedding hint and re-check under the mutex
  /// before recording a partial.
  std::atomic<bool> expired{false};
  /// Invoked exactly once by deliver().
  QueryCompletion completion;
  /// Root-span state for request-scoped tracing (inert when untraced).
  obs::TraceContext rootCtx;
  std::uint32_t rootSpanId = 0;
  std::uint64_t rootStartUs = 0;
};

/// Timer-heap entry; min-heap by deadline via std::push/pop_heap. The
/// reference is weak on purpose: an undelivered query is always kept
/// alive by its outstanding tasks (remaining > 0 means at least one task
/// holds a shared_ptr, and the worker that drops `remaining` to zero
/// delivers before releasing its reference), so the timer never loses a
/// query it still owes a deadline. A delivered query, by contrast, frees
/// as soon as its last task drains instead of being pinned here for up
/// to the full client-supplied deadline — with 30 s deadlines at high
/// QPS a strong reference would retain millions of completed queries.
struct QueryBroker::DeadlineEntry {
  Clock::time_point when{};
  std::weak_ptr<PendingQuery> pending;
  bool operator<(const DeadlineEntry& other) const noexcept {
    return when > other.when;  // std::*_heap are max-heaps; invert
  }
};

struct QueryBroker::MachineStats {
  std::mutex mutex;
  std::uint64_t tasks = 0;
  double busySeconds = 0.0;
};

/// Per-tenant window accumulators — the broker's only query accounting;
/// ObservedLoad's totals are their sums. Counters are atomics (written from
/// client and worker threads); the latency histogram covers served queries
/// only — rejections appear in the rejection counters and the tenant's SLO
/// error rate, never as latency samples. Every tenant's histogram shares
/// one bucket layout, so merging them for the broker-wide quantiles is
/// exact.
struct QueryBroker::TenantStats {
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> cacheHits{0};
  std::atomic<std::uint64_t> rejectedOverShare{0};
  std::atomic<std::uint64_t> rejectedNoToken{0};
  std::atomic<std::uint64_t> expiredQueries{0};
  std::atomic<std::uint64_t> shedTasks{0};
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> postings{0};
  std::atomic<std::uint64_t> busyNanos{0};
  std::mutex mutex;  ///< guards latency
  LatencyHistogram latency{1e-6, 12};
};

QueryBroker::QueryBroker(const Instance& instance, std::vector<MachineId> mapping,
                         const PartitionedIndex& index, ServeConfig config,
                         std::vector<std::shared_ptr<const InvertedIndex>> liveShards)
    : index_(index), config_(config),
      cache_(config.cacheCapacity, config.cacheShards) {
  const std::size_t n = instance.shardCount();
  const std::size_t m = instance.machineCount();
  if (mapping.size() != n)
    throw std::invalid_argument("QueryBroker: mapping size != shard count");
  if (!liveShards.empty()) {
    if (liveShards.size() != n)
      throw std::invalid_argument(
          "QueryBroker: live shard table size != shard count");
    for (const auto& idx : liveShards)
      if (!idx)
        throw std::invalid_argument("QueryBroker: null live shard index");
    liveMode_ = true;
    liveShards_ = std::move(liveShards);
  }
  partitionCount_ = index.shardCount();
  if (instance.replicaGroupCount() != partitionCount_)
    throw std::invalid_argument(
        "QueryBroker: replica groups must match index partitions");
  groupOf_.resize(n);
  for (ShardId s = 0; s < n; ++s) {
    groupOf_[s] = instance.replicaGroupOf(s);
    if (groupOf_[s] >= partitionCount_)
      throw std::invalid_argument("QueryBroker: replica group out of range");
    if (mapping[s] >= m)
      throw std::invalid_argument("QueryBroker: mapping machine out of range");
  }

  // Tenant table: the configured query classes, or one implicit class that
  // owns every token — which keeps the fair-share queues degenerate FIFOs.
  // Its SLO window is ServeConfig::sloClass, registered only when named.
  const bool implicitTenant = config_.tenants.empty();
  if (implicitTenant) {
    TenantSpec implicit;
    implicit.name = "default";
    implicit.guaranteedShare = 1.0;
    implicit.sloClass = config_.sloClass;
    implicit.slo = config_.slo;
    registry_ = TenantRegistry({std::move(implicit)});
  } else {
    if (!config_.sloClass.empty())
      throw std::invalid_argument(
          "QueryBroker: sloClass names the implicit tenant's window; with "
          "tenants configured, set each TenantSpec::sloClass instead");
    registry_ = TenantRegistry(config_.tenants);
  }

  queues_.reserve(m);
  machineStats_.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    queues_.push_back(std::make_unique<FairShareQueue<Task>>(registry_.weights()));
    machineStats_.push_back(std::make_unique<MachineStats>());
  }
  tenantStats_.reserve(registry_.count());
  for (std::size_t t = 0; t < registry_.count(); ++t)
    tenantStats_.push_back(std::make_unique<TenantStats>());
  shardTasks_ = std::vector<std::atomic<std::uint64_t>>(n);
  shardPostings_ = std::vector<std::atomic<std::uint64_t>>(n);
  shardBusyNanos_ = std::vector<std::atomic<std::uint64_t>>(n);

  mapping_ = std::move(mapping);
  rebuildHosts(mapping_);

  tenantSlos_.assign(registry_.count(), nullptr);
  if (!implicitTenant || !config_.sloClass.empty())
    for (TenantId t = 0; t < registry_.count(); ++t)
      tenantSlos_[t] = &obs::SloRegistry::global().window(registry_.sloClassOf(t),
                                                          registry_.spec(t).slo);
  if (config_.tracing)
    obs::TraceRegistry::global().setKeepSlowestOf(config_.traceKeepSlowestOf);

  // Worker pools scaled by CPU capacity: the largest machine gets
  // `workersPerMachine`, the rest proportionally fewer (min 1).
  double maxCapacity = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    maxCapacity = std::max(maxCapacity, instance.machine(i).capacity[0]);
  workersPerMachine_.resize(m);
  const auto base = static_cast<double>(std::max<std::size_t>(1, config_.workersPerMachine));
  for (std::size_t i = 0; i < m; ++i) {
    const double scale =
        maxCapacity > 0.0 ? instance.machine(i).capacity[0] / maxCapacity : 1.0;
    workersPerMachine_[i] =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(base * scale)));
  }

  // Execution-slot tokens: each worker's slot plus the queue allowance,
  // so admission sees the machine's capacity skew and bounds its tasks in
  // flight at workers + queueCapacity.
  std::vector<std::uint32_t> slots(m);
  for (std::size_t i = 0; i < m; ++i)
    slots[i] = static_cast<std::uint32_t>(std::min<std::size_t>(
        workersPerMachine_[i] + config_.queueCapacity, UINT32_MAX));
  bank_ = std::make_unique<TokenBank>(std::move(slots), registry_);

  windowStart_ = Clock::now();
  accepting_.store(true, std::memory_order_release);
  timerThread_ = std::thread([this] { timerLoop(); });
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t w = 0; w < workersPerMachine_[i]; ++w)
      workers_.emplace_back([this, i] { workerLoop(i); });
}

QueryBroker::~QueryBroker() { shutdown(); }

void QueryBroker::rebuildHosts(const std::vector<MachineId>& mapping) {
  hosts_.assign(partitionCount_, {});
  for (ShardId s = 0; s < mapping.size(); ++s)
    hosts_[groupOf_[s]].emplace_back(mapping[s], s);
  for (std::uint32_t g = 0; g < partitionCount_; ++g)
    if (hosts_[g].empty())
      throw std::invalid_argument("QueryBroker: partition with no replica host");
}

void QueryBroker::applyMapping(const std::vector<MachineId>& newMapping) {
  if (newMapping.size() != groupOf_.size())
    throw std::invalid_argument("QueryBroker: remap size mismatch");
  for (const MachineId mach : newMapping)
    if (mach >= queues_.size())
      throw std::invalid_argument("QueryBroker: remap machine out of range");
  {
    std::unique_lock lock(mappingMutex_);
    mapping_ = newMapping;
    rebuildHosts(mapping_);
  }
  remapCounter().add();
}

std::shared_ptr<const InvertedIndex> QueryBroker::applyShardMove(
    ShardId shard, MachineId from, MachineId to,
    std::shared_ptr<const InvertedIndex> replacement) {
  if (shard >= groupOf_.size())
    throw std::invalid_argument("QueryBroker: applyShardMove shard out of range");
  if (to >= queues_.size())
    throw std::invalid_argument("QueryBroker: applyShardMove machine out of range");
  if (liveMode_ && replacement) {
    // Cached results stay valid across the move only because the content
    // does: a segment-backed replacement must carry the same statistics and
    // per-plane sizes and checksums as the index it replaces.
    std::shared_lock lock(liveMutex_);
    const auto& current = liveShards_[shard]->segment();
    const auto& incoming = replacement->segment();
    if (current && incoming &&
        !sameSegmentContent(current->footer(), incoming->footer()))
      throw std::invalid_argument(
          "QueryBroker: applyShardMove replacement holds different content");
  }
  {
    std::unique_lock lock(mappingMutex_);
    if (mapping_[shard] != from)
      throw std::invalid_argument(
          "QueryBroker: applyShardMove source does not match live mapping");
    mapping_[shard] = to;
    rebuildHosts(mapping_);
  }
  std::shared_ptr<const InvertedIndex> old;
  if (liveMode_ && replacement) {
    std::unique_lock lock(liveMutex_);
    old = std::exchange(liveShards_[shard], std::move(replacement));
  }
  // The replica is gone from `from`: its window heat goes with it, so
  // /debug/shards and the next ObservedLoad harvest report the departed
  // copy cold instead of carrying stale heat into the controller.
  shardTasks_[shard].store(0, std::memory_order_relaxed);
  shardPostings_[shard].store(0, std::memory_order_relaxed);
  shardBusyNanos_[shard].store(0, std::memory_order_relaxed);
  obs::MetricsRegistry::global().counter("serve.shard_moves").add();
  remapCounter().add();
  return old;
}

QueryResult QueryBroker::execute(const std::vector<TermId>& terms, TenantId tenant) {
  // Synchronous facade over the async path: park this thread until the
  // completion fires. The deadline wait the old implementation did on the
  // caller's condition variable now happens on the timer thread.
  struct SyncState {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    QueryResult result;
  };
  auto state = std::make_shared<SyncState>();
  SubmitOptions options;
  options.tenant = tenant;
  submit(terms, options, [state](QueryResult result) {
    std::lock_guard lock(state->mutex);
    state->result = std::move(result);
    state->done = true;
    state->cv.notify_one();
  });
  std::unique_lock lock(state->mutex);
  state->cv.wait(lock, [&] { return state->done; });
  return std::move(state->result);
}

/// Records the root "query" span and retires the trace; a no-op when the
/// query is untraced. Free-standing because every delivery path —
/// submitting thread, worker, timer — funnels through it.
namespace {
void finishQueryTrace(const obs::TraceContext& rootCtx, std::uint32_t rootSpanId,
                      std::uint64_t rootStartUs, const QueryResult& res) {
  if (!rootCtx.active()) return;
  obs::SpanArena& arena = obs::TraceRegistry::global().threadArena();
  obs::RichSpan root;
  root.name = "query";
  root.traceId = rootCtx.traceId;
  root.spanId = rootSpanId;
  root.parentSpanId = 0;
  root.startUs = rootStartUs;
  root.durUs = obs::nowMicros() - rootStartUs;
  root.tid = arena.tid();
  root.addArg("cache_hit", res.cacheHit ? 1.0 : 0.0);
  root.addArg("complete", res.complete ? 1.0 : 0.0);
  root.addArg("partitions", static_cast<double>(res.partitionsTotal));
  root.addArg("answered", static_cast<double>(res.partitionsAnswered));
  arena.record(root);
  obs::TraceRegistry::global().retire(rootCtx, root.durUs, !res.complete,
                                      res.complete ? "slow" : "deadline");
}
}  // namespace

bool QueryBroker::submit(const std::vector<TermId>& terms,
                         const SubmitOptions& options, QueryCompletion completion) {
  const auto t0 = Clock::now();
  const TenantId tenant = options.tenant;
  TenantStats& tstats = *tenantStats_.at(tenant);
  const std::uint32_t k = options.topK != 0 ? options.topK : config_.topK;
  const double deadlineSeconds = options.deadlineSeconds < 0.0
                                     ? config_.deadlineSeconds
                                     : options.deadlineSeconds;
  QueryResult result;
  result.tenant = tenant;
  result.partitionsTotal = static_cast<std::uint32_t>(partitionCount_);
  if (!accepting_.load(std::memory_order_acquire)) {
    result.cancelled = true;
    completion(std::move(result));
    return true;
  }
  RESEX_TRACE_SPAN("serve.query");
  tstats.queries.fetch_add(1, std::memory_order_relaxed);
  queriesCounter().add();

  // Request-scoped trace: the root "query" span is recorded at delivery so
  // the retire decision (tail sampling) sees the final latency and
  // degradation outcome in the same breath.
  obs::TraceContext rootCtx;
  std::uint32_t rootSpanId = 0;
  std::uint64_t rootStartUs = 0;
  if (config_.tracing && obs::TraceRegistry::enabled()) {
    const obs::TraceContext trace = obs::TraceRegistry::global().startTrace();
    if (trace.active()) {
      rootSpanId = obs::TraceRegistry::global().nextSpanId();
      rootStartUs = obs::nowMicros();
      rootCtx = trace.child(rootSpanId);
    }
  }

  ResultKey key(terms, k);
  if (cache_.get(key, result.docs)) {
    result.complete = true;
    result.cacheHit = true;
    result.partitionsAnswered = result.partitionsTotal;
    result.latencySeconds = secondsBetween(t0, Clock::now());
    tstats.cacheHits.fetch_add(1, std::memory_order_relaxed);
    recordServed(tenant, result.latencySeconds, false);
    finishQueryTrace(rootCtx, rootSpanId, rootStartUs, result);
    completion(std::move(result));
    return true;
  }

  auto pending = std::make_shared<PendingQuery>(std::move(key));
  pending->tenant = tenant;
  pending->t0 = t0;
  pending->hasDeadline = deadlineSeconds > 0.0;
  if (pending->hasDeadline)
    pending->deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(deadlineSeconds));
  pending->partials.resize(partitionCount_);
  pending->remaining = partitionCount_;
  pending->completion = std::move(completion);
  pending->rootCtx = rootCtx;
  pending->rootSpanId = rootSpanId;
  pending->rootStartUs = rootStartUs;

  // Routing *is* token admission: one execution-slot token per partition,
  // each bound to the freest hosting machine, then a task per token.
  // Over-share traffic is turned away here instead of poisoning the shared
  // queues. A query short of slots waits for a release — outside the
  // mapping lock, so cutovers never stall behind it — until its deadline. A
  // push fails only on a queue closed by shutdown: the partition counts as
  // missed and its token goes straight back.
  std::size_t missedPushes = 0;
  Admission verdict = Admission::kAdmitted;
  {
    obs::ScopedSpan routeSpan(rootCtx, "query.route");
    std::vector<std::uint32_t> picks;
    for (;;) {
      const std::uint64_t epoch = bank_->releaseEpoch();
      {
        std::shared_lock lock(mappingMutex_);
        verdict = bank_->acquire(tenant, hosts_, picks);
        if (verdict == Admission::kAdmitted) {
          for (std::uint32_t g = 0; g < partitionCount_; ++g) {
            const auto [mach, shard] = hosts_[g][picks[g]];
            const std::size_t depth = queues_[mach]->size();
            peakDepthGauge().max(static_cast<double>(depth));
            Task task;
            task.pending = pending;
            task.partition = g;
            task.physicalShard = shard;
            if (rootCtx.active()) {
              task.trace = rootCtx;
              task.enqueueUs = obs::nowMicros();
              task.depthAtDispatch = static_cast<std::uint32_t>(depth);
            }
            if (!queues_[mach]->push(std::move(task), tenant)) {
              ++missedPushes;
              bank_->release(tenant, mach);
            }
          }
          break;
        }
      }
      if (verdict != Admission::kRejectedNoToken || !options.waitForQueue ||
          !bank_->awaitRelease(epoch, pending->hasDeadline
                                          ? std::optional(pending->deadline)
                                          : std::nullopt))
        break;
    }
    if (routeSpan.active()) {
      routeSpan.arg("partitions", static_cast<double>(partitionCount_));
      routeSpan.arg("missed_pushes", static_cast<double>(missedPushes));
      routeSpan.arg("admitted", verdict == Admission::kAdmitted ? 1.0 : 0.0);
    }
  }
  if (verdict != Admission::kAdmitted) {
    // Turned away at admission: no work was queued. The rejection is an
    // SLO error for the tenant but not a latency sample — quantiles cover
    // served queries only.
    result.rejected = true;
    result.latencySeconds = secondsBetween(t0, Clock::now());
    (verdict == Admission::kRejectedNoToken ? tstats.rejectedNoToken
                                            : tstats.rejectedOverShare)
        .fetch_add(1, std::memory_order_relaxed);
    rejectedCounter().add();
    if (obs::SloWindow* slo = tenantSlos_[tenant])
      slo->record(result.latencySeconds, true);
    finishQueryTrace(rootCtx, rootSpanId, rootStartUs, result);
    pending->completion(std::move(result));
    return verdict == Admission::kRejectedOverShare;
  }

  bool alreadyDone = false;
  if (missedPushes > 0) {
    std::lock_guard lock(pending->mutex);
    pending->remaining -= missedPushes;
    alreadyDone = pending->remaining == 0;
  }
  if (alreadyDone) {
    // Every push met a closed queue (shutdown race): nothing is in
    // flight, deliver the empty degraded result right here.
    deliver(pending, /*viaTimer=*/false);
  } else if (pending->hasDeadline) {
    armDeadline(pending);
  }
  return missedPushes == 0;
}

void QueryBroker::recordServed(TenantId tenant, double seconds, bool error) {
  TenantStats& tstats = *tenantStats_[tenant];
  {
    std::lock_guard lock(tstats.mutex);
    tstats.latency.add(seconds);
  }
  latencyHistogram().observe(seconds * 1e6);
  if (obs::SloWindow* slo = tenantSlos_[tenant]) slo->record(seconds, error);
}

void QueryBroker::deliver(const std::shared_ptr<PendingQuery>& pending,
                          bool viaTimer) {
  QueryResult result;
  result.tenant = pending->tenant;
  result.partitionsTotal = static_cast<std::uint32_t>(partitionCount_);
  {
    std::lock_guard lock(pending->mutex);
    if (pending->delivered) return;
    pending->delivered = true;
    if (viaTimer) pending->expired.store(true, std::memory_order_relaxed);
    result.partitionsAnswered = pending->answered;
    result.complete = pending->answered == partitionCount_;
    obs::ScopedSpan mergeSpan(pending->rootCtx, "query.merge");
    result.docs = mergeTopK(pending->partials, pending->key.k());
    if (mergeSpan.active())
      mergeSpan.arg("answered", static_cast<double>(result.partitionsAnswered));
    // Still-queued shed tasks keep the PendingQuery alive until they
    // drain; drop the merged partials now so what they pin is small.
    // (`key` must stay: workers read its terms without the mutex while
    // executing.) Workers only touch `partials` under the mutex after
    // checking `delivered`, so clearing here is safe.
    pending->partials.clear();
    pending->partials.shrink_to_fit();
  }

  result.latencySeconds = secondsBetween(pending->t0, Clock::now());
  if (!result.complete) {
    tenantStats_[pending->tenant]->expiredQueries.fetch_add(1, std::memory_order_relaxed);
    expiredCounter().add();
  } else {
    cache_.put(pending->key, result.docs);
  }
  recordServed(pending->tenant, result.latencySeconds, !result.complete);
  finishQueryTrace(pending->rootCtx, pending->rootSpanId, pending->rootStartUs,
                   result);
  // The completion runs outside every broker lock; it may re-enter the
  // broker (a pipelined client submitting its next query inline).
  QueryCompletion completion = std::move(pending->completion);
  completion(std::move(result));
}

void QueryBroker::armDeadline(std::shared_ptr<PendingQuery> pending) {
  {
    std::lock_guard lock(timerMutex_);
    timerHeap_.push_back(DeadlineEntry{pending->deadline, pending});
    std::push_heap(timerHeap_.begin(), timerHeap_.end());
    // Dead entries (query delivered, all task references gone) still
    // occupy heap slots until their deadline would have fired. Compact
    // them out whenever the heap doubles past the last compaction, so
    // the heap tracks the number of genuinely live queries — amortized
    // O(1) per arm — instead of growing with deadline length x QPS.
    if (timerHeap_.size() >= timerCompactAt_) {
      std::erase_if(timerHeap_, [](const DeadlineEntry& entry) {
        return entry.pending.expired();
      });
      std::make_heap(timerHeap_.begin(), timerHeap_.end());
      timerCompactAt_ =
          std::max<std::size_t>(kTimerCompactFloor, timerHeap_.size() * 2);
    }
  }
  timerCv_.notify_one();
}

std::size_t QueryBroker::deadlineHeapSize() const {
  std::lock_guard lock(timerMutex_);
  return timerHeap_.size();
}

void QueryBroker::timerLoop() {
  std::unique_lock lock(timerMutex_);
  while (!timerStop_) {
    if (timerHeap_.empty()) {
      timerCv_.wait(lock, [this] { return timerStop_ || !timerHeap_.empty(); });
      continue;
    }
    if (timerHeap_.front().pending.expired()) {
      // The earliest armed query already delivered and fully drained:
      // drop the entry now instead of sleeping on a dead deadline.
      std::pop_heap(timerHeap_.begin(), timerHeap_.end());
      timerHeap_.pop_back();
      continue;
    }
    const Clock::time_point due = timerHeap_.front().when;
    if (Clock::now() < due) {
      // Woken early by a new (possibly earlier) deadline or stop; loop
      // re-evaluates the heap top either way.
      timerCv_.wait_until(lock, due);
      continue;
    }
    std::pop_heap(timerHeap_.begin(), timerHeap_.end());
    std::shared_ptr<PendingQuery> pending = timerHeap_.back().pending.lock();
    timerHeap_.pop_back();
    lock.unlock();
    if (pending) deliver(pending, /*viaTimer=*/true);
    lock.lock();
  }
}

void QueryBroker::workerLoop(std::size_t machine) {
  FairShareQueue<Task>& queue = *queues_[machine];
  MachineStats& stats = *machineStats_[machine];
  // The worker's scratch arena: every query this thread executes scores
  // through these buffers, so steady-state execution allocates nothing.
  QueryScratch scratch;
  // Pacing bookkeeping: per-task sleeps overshoot by a scheduler quantum,
  // which would silently shrink the machine's emulated capacity, so the
  // worker accumulates owed service time and sleeps it off in batches,
  // measuring each sleep and carrying the (signed) error forward. The
  // long-run service rate is then exact even though individual tasks
  // complete in small bursts.
  constexpr double kPaceQuantum = 2e-3;
  double paceDebt = 0.0;
  while (auto popped = queue.pop()) {
    Task& task = *popped;
    PendingQuery& pending = *task.pending;
    const auto start = Clock::now();
    // Load shedding: skip work whose query already gave up (expired) or
    // whose deadline passed while the task sat in the queue.
    bool run = !pending.expired.load(std::memory_order_relaxed);
    if (run && pending.hasDeadline && start >= pending.deadline) run = false;

    std::vector<ScoredDoc> partial;
    ExecStats exec;
    double busy = 0.0;
    {
      // The per-partition execution span, parented to the query's root span
      // on whatever client thread started the trace. Queue wait and the
      // dispatch-time depth ride along as args — the two signals that tell a
      // trace reader whether a slow partition waited or worked. The span's
      // scope closes before delivery: the retiring client must be able to
      // observe this span once it observes its result.
      obs::ScopedSpan execSpan(task.trace, "task.exec");
      if (execSpan.active()) {
        execSpan.arg("partition", static_cast<double>(task.partition));
        execSpan.arg("shard", static_cast<double>(task.physicalShard));
        execSpan.arg("machine", static_cast<double>(machine));
        execSpan.arg("queue_wait_us",
                     static_cast<double>(obs::nowMicros() - task.enqueueUs));
        execSpan.arg("depth_at_dispatch",
                     static_cast<double>(task.depthAtDispatch));
      }
      if (run) {
        // Live mode serves the physical shard's segment-backed index; the
        // shared_ptr copied here keeps it alive through execution even if a
        // cutover swaps the table entry mid-task (drain-by-refcount).
        // Global statistics always come from the partitioned index, so
        // scores are bit-identical in both modes.
        std::shared_ptr<const InvertedIndex> liveIndex;
        if (liveMode_) {
          std::shared_lock liveLock(liveMutex_);
          liveIndex = liveShards_[task.physicalShard];
        }
        const InvertedIndex& shardIndex =
            liveIndex ? *liveIndex : index_.shard(task.partition);
        const auto topDocs =
            topKDisjunctiveInto(shardIndex, pending.key.terms(), pending.key.k(),
                                config_.bm25, scratch, &exec, &index_.globalStats());
        partial.assign(topDocs.begin(), topDocs.end());
        const double realExec = secondsBetween(start, Clock::now());
        const double paced =
            config_.serviceFixedSeconds +
            static_cast<double>(exec.postingsScanned) * config_.servicePerPostingSeconds;
        busy = std::max(realExec, paced);
        if (paced > realExec) paceDebt += paced - realExec;
        if (paceDebt > kPaceQuantum) {
          const auto sleepStart = Clock::now();
          std::this_thread::sleep_for(std::chrono::duration<double>(paceDebt));
          paceDebt -= secondsBetween(sleepStart, Clock::now());
        }
      } else {
        tenantStats_[pending.tenant]->shedTasks.fetch_add(1, std::memory_order_relaxed);
        shedCounter().add();
        busy = secondsBetween(start, Clock::now());
      }
      if (run) {
        // Execution is charged to the shard whether or not the result is
        // still wanted by delivery time — the work happened there either way.
        shardTasks_[task.physicalShard].fetch_add(1, std::memory_order_relaxed);
        shardPostings_[task.physicalShard].fetch_add(exec.postingsScanned,
                                                     std::memory_order_relaxed);
        shardBusyNanos_[task.physicalShard].fetch_add(
            static_cast<std::uint64_t>(busy * 1e9), std::memory_order_relaxed);
        blocksDecoded_.fetch_add(exec.blocksDecoded, std::memory_order_relaxed);
        TenantStats& tstats = *tenantStats_[pending.tenant];
        tstats.tasks.fetch_add(1, std::memory_order_relaxed);
        tstats.postings.fetch_add(exec.postingsScanned, std::memory_order_relaxed);
        tstats.busyNanos.fetch_add(static_cast<std::uint64_t>(busy * 1e9),
                                   std::memory_order_relaxed);
      }

      if (execSpan.active()) {
        execSpan.arg("shed", run ? 0.0 : 1.0);
        if (run) {
          execSpan.arg("postings", static_cast<double>(exec.postingsScanned));
          execSpan.arg("blocks_decoded", static_cast<double>(exec.blocksDecoded));
        }
      }
    }  // execSpan records into this worker's arena here

    // The execution slot returns to this machine the moment the work (or
    // the shed) is done, so admission sees capacity again before delivery.
    bank_->release(pending.tenant, static_cast<MachineId>(machine));

    // Stats land before delivery so a client observing its result's
    // completion also observes the work accounted (snapshot consistency
    // for sequential callers).
    {
      std::lock_guard lock(stats.mutex);
      ++stats.tasks;
      stats.busySeconds += busy;
    }
    bool finished = false;
    {
      std::lock_guard lock(pending.mutex);
      if (run && !pending.expired.load(std::memory_order_relaxed) &&
          !pending.delivered) {
        pending.partials[task.partition] = std::move(partial);
        ++pending.answered;
      }
      if (pending.remaining > 0) --pending.remaining;
      finished = pending.remaining == 0 && !pending.delivered;
    }
    // The worker that answers (or sheds) the last partition delivers the
    // merged result; deliver() re-checks the delivered flag, so racing
    // the deadline timer is benign.
    if (finished) deliver(task.pending, /*viaTimer=*/false);
  }
}

ObservedLoad QueryBroker::harvestObservedLoad(bool resetWindow) {
  const std::size_t m = queues_.size();
  const std::size_t n = groupOf_.size();
  ObservedLoad out;
  out.machineTasks.resize(m);
  out.machineBusySeconds.resize(m);
  out.machineQueueDepth.resize(m);
  out.shardTasks.resize(n);
  out.shardPostings.resize(n);
  out.shardBusySeconds.resize(n);
  {
    std::lock_guard lock(windowMutex_);
    const auto now = Clock::now();
    out.windowSeconds = secondsBetween(windowStart_, now);
    if (resetWindow) windowStart_ = now;
  }
  for (std::size_t i = 0; i < m; ++i) {
    MachineStats& stats = *machineStats_[i];
    std::lock_guard lock(stats.mutex);
    out.machineTasks[i] = stats.tasks;
    out.machineBusySeconds[i] = stats.busySeconds;
    if (resetWindow) {
      stats.tasks = 0;
      stats.busySeconds = 0.0;
    }
    out.machineQueueDepth[i] = queues_[i]->size();
  }
  const auto harvest = [resetWindow](std::atomic<std::uint64_t>& v) {
    return resetWindow ? v.exchange(0, std::memory_order_relaxed)
                       : v.load(std::memory_order_relaxed);
  };
  for (std::size_t s = 0; s < n; ++s) {
    out.shardTasks[s] = harvest(shardTasks_[s]);
    out.shardPostings[s] = harvest(shardPostings_[s]);
    out.shardBusySeconds[s] = static_cast<double>(harvest(shardBusyNanos_[s])) * 1e-9;
  }
  out.blocksDecoded = harvest(blocksDecoded_);
  LatencyHistogram latency{1e-6, 12};
  out.tenants.resize(registry_.count());
  for (std::size_t t = 0; t < registry_.count(); ++t) {
    TenantStats& ts = *tenantStats_[t];
    ObservedLoad::TenantLoad& tl = out.tenants[t];
    tl.name = registry_.spec(static_cast<TenantId>(t)).name;
    tl.queries = harvest(ts.queries);
    tl.cacheHits = harvest(ts.cacheHits);
    tl.rejectedOverShare = harvest(ts.rejectedOverShare);
    tl.rejectedNoToken = harvest(ts.rejectedNoToken);
    tl.expiredQueries = harvest(ts.expiredQueries);
    tl.shedTasks = harvest(ts.shedTasks);
    tl.tasks = harvest(ts.tasks);
    tl.postings = harvest(ts.postings);
    tl.busySeconds = static_cast<double>(harvest(ts.busyNanos)) * 1e-9;
    {
      std::lock_guard lock(ts.mutex);
      tl.p50 = ts.latency.quantile(0.50);
      tl.p95 = ts.latency.quantile(0.95);
      tl.p99 = ts.latency.quantile(0.99);
      tl.meanLatency = ts.latency.meanValue();
      latency.merge(ts.latency);
      if (resetWindow) ts.latency.reset();
    }
    out.queries += tl.queries;
    out.cacheHits += tl.cacheHits;
    out.expiredQueries += tl.expiredQueries;
    out.shedTasks += tl.shedTasks;
  }
  out.p50 = latency.quantile(0.50);
  out.p95 = latency.quantile(0.95);
  out.p99 = latency.quantile(0.99);
  out.meanLatency = latency.meanValue();
  return out;
}

ObservedLoad QueryBroker::takeObservedLoad() { return harvestObservedLoad(true); }

ObservedLoad QueryBroker::peekObservedLoad() const {
  // Logically const: the no-reset harvest only reads accumulators (the
  // shared body is non-const because the reset branch writes them).
  return const_cast<QueryBroker*>(this)->harvestObservedLoad(false);
}

std::string QueryBroker::debugJson() const {
  const ObservedLoad load = peekObservedLoad();
  JsonWriter json;
  json.beginObject();
  json.field("window_seconds", load.windowSeconds);
  json.field("queries", load.queries);
  json.field("cache_hits", load.cacheHits);
  json.field("expired_queries", load.expiredQueries);
  json.field("shed_tasks", load.shedTasks);
  json.field("throughput_qps", load.throughputQps());
  json.field("p50_seconds", load.p50);
  json.field("p95_seconds", load.p95);
  json.field("p99_seconds", load.p99);
  json.field("mean_seconds", load.meanLatency);
  const CacheStats cache = cache_.stats();
  json.key("cache").beginObject();
  json.field("capacity", static_cast<std::uint64_t>(cache_.capacity()));
  json.field("entries", static_cast<std::uint64_t>(cache_.entryCount()));
  json.field("hits", cache.hits);
  json.field("misses", cache.misses);
  json.field("admitted", cache.admitted);
  json.field("rejections", cache.rejected);
  json.field("evictions", cache.evictions);
  json.field("entries_invalidated", cache.entriesInvalidated);
  json.endObject();
  json.key("machines").beginArray();
  for (std::size_t i = 0; i < load.machineTasks.size(); ++i) {
    json.beginObject();
    json.field("machine", static_cast<std::uint64_t>(i));
    json.field("workers", static_cast<std::uint64_t>(workersPerMachine_[i]));
    json.field("queue_depth", static_cast<std::uint64_t>(load.machineQueueDepth[i]));
    json.field("tasks", load.machineTasks[i]);
    json.field("busy_seconds", load.machineBusySeconds[i]);
    json.field("busy_fraction", load.machineBusyFraction(i, workersPerMachine_[i]));
    json.endObject();
  }
  json.endArray();
  json.endObject();
  return json.str();
}

std::string QueryBroker::shardsJson() const {
  const ObservedLoad load = peekObservedLoad();
  std::vector<MachineId> mapping;
  {
    std::shared_lock lock(mappingMutex_);
    mapping = mapping_;
  }
  std::vector<std::shared_ptr<const InvertedIndex>> live;
  if (liveMode_) {
    std::shared_lock lock(liveMutex_);
    live = liveShards_;
  }
  JsonWriter json;
  json.beginObject();
  json.field("window_seconds", load.windowSeconds);
  json.key("shards").beginArray();
  for (std::size_t s = 0; s < mapping.size(); ++s) {
    const InvertedIndex& shardIndex =
        liveMode_ ? *live[s] : index_.shard(groupOf_[s]);
    json.beginObject();
    json.field("shard", static_cast<std::uint64_t>(s));
    json.field("partition", static_cast<std::uint64_t>(groupOf_[s]));
    json.field("machine", static_cast<std::uint64_t>(mapping[s]));
    json.field("tasks", load.shardTasks[s]);
    json.field("postings", load.shardPostings[s]);
    json.field("busy_seconds", load.shardBusySeconds[s]);
    json.field("mean_task_seconds",
               load.shardTasks[s] > 0
                   ? load.shardBusySeconds[s] / static_cast<double>(load.shardTasks[s])
                   : 0.0);
    json.field("index_bytes", static_cast<std::uint64_t>(shardIndex.indexBytes()));
    json.field("resident_bytes",
               static_cast<std::uint64_t>(shardIndex.residentBytes()));
    json.endObject();
  }
  json.endArray();
  json.endObject();
  return json.str();
}

std::string QueryBroker::tenantsJson() const {
  JsonWriter json;
  const ObservedLoad load = peekObservedLoad();
  json.beginObject();
  json.field("window_seconds", load.windowSeconds);
  json.field("total_tokens", bank_->totalTokens());
  json.field("free_tokens", bank_->freeTokens());
  json.key("tenants").beginArray();
  for (std::size_t t = 0; t < registry_.count(); ++t) {
    const auto id = static_cast<TenantId>(t);
    const TenantSpec& spec = registry_.spec(id);
    const ObservedLoad::TenantLoad& tl = load.tenants[t];
    json.beginObject();
    json.field("tenant", static_cast<std::uint64_t>(t));
    json.field("name", spec.name);
    json.field("weight", spec.weight);
    json.field("guaranteed_share", spec.guaranteedShare);
    json.field("burst_limit", spec.burstLimit);
    json.field("held_tokens", bank_->heldBy(id));
    json.field("entitled_tokens", bank_->entitled(id));
    json.field("cap_tokens", bank_->cap(id));
    json.field("queries", tl.queries);
    json.field("cache_hits", tl.cacheHits);
    json.field("rejected_over_share", tl.rejectedOverShare);
    json.field("rejected_no_token", tl.rejectedNoToken);
    json.field("expired_queries", tl.expiredQueries);
    json.field("shed_tasks", tl.shedTasks);
    json.field("tasks", tl.tasks);
    json.field("postings", tl.postings);
    json.field("busy_seconds", tl.busySeconds);
    json.field("p50_seconds", tl.p50);
    json.field("p95_seconds", tl.p95);
    json.field("p99_seconds", tl.p99);
    json.field("mean_seconds", tl.meanLatency);
    if (const obs::SloWindow* window = tenantSlos_[t]) {
      const obs::SloSnapshot slo = window->snapshot();
      json.field("slo_class", registry_.sloClassOf(id));
      json.key("slo").beginObject();
      json.field("objective", slo.objective);
      json.field("total", slo.total);
      json.field("errors", slo.errors);
      json.field("error_rate", slo.errorRate);
      json.field("burn_rate", slo.burnRate);
      json.field("p99_seconds", slo.p99);
      json.field("latency_breaches", slo.latencyBreaches);
      json.endObject();
    }
    json.endObject();
  }
  json.endArray();
  json.endObject();
  return json.str();
}

void QueryBroker::shutdown() {
  accepting_.store(false, std::memory_order_release);
  std::call_once(shutdownOnce_, [this] {
    // Drain order matters for exactly-once delivery: queries waiting for a
    // token give up (rejected), queues reject new work but workers pop
    // everything already accepted, so every pending query's remaining-count
    // reaches zero and delivers. Only then does the timer stop — its
    // leftover entries are all delivered no-ops.
    bank_->close();
    for (const auto& queue : queues_) queue->close();
    for (std::thread& worker : workers_) worker.join();
    {
      std::lock_guard lock(timerMutex_);
      timerStop_ = true;
    }
    timerCv_.notify_all();
    if (timerThread_.joinable()) timerThread_.join();
  });
}

}  // namespace resex::serve
