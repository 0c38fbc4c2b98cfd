// QueryBroker: the concurrent query-serving layer.
//
// This is where the paper's claim is actually exercised: a shard mapping
// is only "better" if real queries, served by real threads against real
// per-shard indexes, see better tail latency under it. The broker models
// one machine as one work queue plus a worker pool sized by the machine's
// CPU capacity; a query scatter-gathers over every logical partition and
// completes when all partitions answer — or when its deadline expires, in
// which case the client gets the merged partial from whatever partitions
// made it (degraded, never blocked). One TokenBank (see tenant.hpp)
// admits, routes and bounds that work for every tenant, implicit or not.
//
// Life of a query (execute() is called concurrently by client threads):
//   1. result-cache probe (TinyLFU-admitted sharded LRU keyed on the
//      canonical query; complete results only);
//   2. admit and route: one token per partition, bound to the hosting
//      replica with the most free slots; enqueue a task per token. Short
//      of slots the query waits until its deadline (backpressure) or, when
//      it may not wait, is rejected;
//   3. workers pop tasks, skip ones whose query already expired (load
//      shedding), otherwise run BM25 top-k over the partition's inverted
//      index with global statistics and deliver the partial;
//   4. the client thread waits on the query's condition variable until
//      all partitions answered or the deadline passed; merges partials.
//
// Shutdown: token waiters are rejected; queues reject new work but drain
// what was accepted, so every in-flight query's remaining-count reaches
// zero — clean join, no orphan waiters. applyMapping() swaps the routing
// table; tasks already queued finish on their old machines (the way a live
// migration drains). A move changes where a shard is served, not what it
// holds, so cached results stay valid across every remap and cutover.
//
// Observability: aggregate counters/histograms go to the obs:: registry
// (serve.queries, serve.query_latency_us, ...); per-machine and per-shard
// measurements accumulate in the broker and are harvested as ObservedLoad
// windows — the measured-load snapshot the controller can rebalance on
// instead of predicted demand.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/instance.hpp"
#include "index/partition.hpp"
#include "obs/context.hpp"
#include "obs/slo.hpp"
#include "serve/fair_share.hpp"
#include "serve/lru_cache.hpp"
#include "serve/tenant.hpp"

namespace resex::serve {

struct ServeConfig {
  /// Results per query.
  std::uint32_t topK = 10;
  /// Per-query deadline; <= 0 serves without one.
  double deadlineSeconds = 0.0;
  /// Machine m gets workers(m) + queueCapacity execution-slot tokens: the
  /// bound on its tasks in flight (backpressure).
  std::size_t queueCapacity = 1024;
  /// Worker threads on the *largest* machine; other machines scale by
  /// capacity[0] relative to the largest (min 1). Homogeneous clusters get
  /// exactly this many workers per machine.
  std::size_t workersPerMachine = 1;
  /// Emulated service pacing: when either is > 0, a worker holds its
  /// machine busy until `serviceFixedSeconds +
  /// postingsScanned * servicePerPostingSeconds` have elapsed since it
  /// started the task (sleeping off whatever real execution left over).
  /// This gives every machine a deterministic service capacity independent
  /// of how many physical cores back the worker pool — the way the serving
  /// benchmark realizes the instance's per-machine CPU capacity on a host
  /// with fewer cores than machines. Shed tasks are not paced (shedding is
  /// supposed to be cheap). Zero disables pacing.
  double serviceFixedSeconds = 0.0;
  double servicePerPostingSeconds = 0.0;
  /// Total result-cache entries (0 disables) and its lock shards.
  std::size_t cacheCapacity = 0;
  std::size_t cacheShards = 8;
  Bm25Params bm25;
  std::uint64_t seed = 1;
  /// Request-scoped tracing: when true (and obs::TraceRegistry is
  /// enabled), every query gets a TraceContext propagated through its
  /// queue tasks, producing a span tree — route, per-partition queue wait
  /// and execution (ExecStats as span args), merge — tail-sampled at
  /// retire: degraded/shed/deadline-missed queries always kept, plus the
  /// slowest ~1/traceKeepSlowestOf of the rest.
  bool tracing = false;
  std::uint32_t traceKeepSlowestOf = 64;
  /// When non-empty, every query outcome is recorded into the globally
  /// registered obs::SloRegistry window of this name (latency + error =
  /// degraded/rejected), making the broker a live SLO source. The implicit
  /// tenant's window: setting it together with `tenants` throws.
  std::string sloClass;
  obs::SloConfig slo;
  /// The query classes this broker serves, each with a fair-share weight,
  /// token guarantee/burst cap, and its own SLO class (see tenant.hpp);
  /// execute() calls identify their tenant by id (registration order).
  /// Empty = one implicit tenant {"default", guaranteedShare 1}, which
  /// owns every token and so is only turned away for lack of a slot.
  std::vector<TenantSpec> tenants;
};

/// What the client gets back.
struct QueryResult {
  std::vector<ScoredDoc> docs;
  /// Every partition answered before the deadline (cache hits are complete
  /// by construction).
  bool complete = false;
  bool cacheHit = false;
  /// The broker was shutting down; no work was attempted.
  bool cancelled = false;
  /// Token admission turned the query away: the tenant was over its share,
  /// or no machine had a free execution slot (by the deadline, when the
  /// query waited). No work was attempted; counted against the tenant's SLO
  /// but not its latency quantiles (which cover served queries only).
  bool rejected = false;
  /// Which tenant the query was accounted to.
  TenantId tenant = 0;
  std::uint32_t partitionsAnswered = 0;
  std::uint32_t partitionsTotal = 0;
  double latencySeconds = 0.0;
};

/// Measured load over one observation window (since the previous
/// snapshot). This is what replaces *predicted* demand in the control
/// loop: per-shard work is counted where it actually ran.
struct ObservedLoad {
  double windowSeconds = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t expiredQueries = 0;
  std::uint64_t shedTasks = 0;
  /// Per machine: tasks executed, seconds spent executing, and the queue
  /// depth at snapshot time.
  std::vector<std::uint64_t> machineTasks;
  std::vector<double> machineBusySeconds;
  std::vector<std::size_t> machineQueueDepth;
  /// Per physical shard: tasks *executed* there (shed tasks excluded),
  /// postings actually scanned, and wall seconds workers spent executing
  /// them — the measured work behind machineBusySeconds, attributed to
  /// where it ran. shardBusySeconds / shardTasks is the mean observed
  /// service time per task, the most direct per-shard CPU demand a
  /// controller can plan on (robust to load shedding, which suppresses
  /// task counts and busy time together).
  std::vector<std::uint64_t> shardTasks;
  std::vector<std::uint64_t> shardPostings;
  std::vector<double> shardBusySeconds;
  /// Aggregate block-kernel counters over the window: posting blocks
  /// decoded vs passed over without decoding, and heap-threshold pruning
  /// decisions (see ExecStats).
  std::uint64_t blocksDecoded = 0;
  std::uint64_t blocksSkipped = 0;
  std::uint64_t heapThresholdPrunes = 0;
  /// Client-visible latency over the window.
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, meanLatency = 0.0;
  /// Per-tenant heat over the window; the totals above are its sums.
  /// Latency quantiles cover served queries; rejected queries show up only
  /// in the rejection counters and the tenant's SLO error rate.
  struct TenantLoad {
    std::string name;
    std::uint64_t queries = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t rejectedOverShare = 0;
    std::uint64_t rejectedNoToken = 0;
    std::uint64_t expiredQueries = 0;
    std::uint64_t shedTasks = 0;
    std::uint64_t tasks = 0;
    std::uint64_t postings = 0;
    double busySeconds = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0, meanLatency = 0.0;
  };
  std::vector<TenantLoad> tenants;

  double throughputQps() const noexcept {
    return windowSeconds > 0.0 ? static_cast<double>(queries) / windowSeconds : 0.0;
  }
  /// Fraction of posting blocks the kernel never had to decode.
  double blockSkipRatio() const noexcept {
    const double total = static_cast<double>(blocksDecoded + blocksSkipped);
    return total > 0.0 ? static_cast<double>(blocksSkipped) / total : 0.0;
  }
  /// Fraction of the window machine `m`'s workers spent executing,
  /// normalized by its worker count.
  double machineBusyFraction(std::size_t m, std::size_t workers) const noexcept {
    const double denom = windowSeconds * static_cast<double>(workers ? workers : 1);
    return denom > 0.0 ? machineBusySeconds[m] / denom : 0.0;
  }
};

/// Per-call overrides for submit(). Defaults reproduce execute()'s
/// behavior exactly (config-driven top-k and deadline, waiting for slots).
struct SubmitOptions {
  TenantId tenant = 0;
  /// 0 = ServeConfig::topK.
  std::uint32_t topK = 0;
  /// < 0 = ServeConfig::deadlineSeconds; 0 = no deadline; > 0 = override.
  double deadlineSeconds = -1.0;
  /// When false the submit path never blocks: a query short of free slots
  /// is rejected at once instead of waiting until its deadline. This is the
  /// transport-thread contract — an event loop cannot sleep on
  /// backpressure; it propagates the false return to the socket instead.
  bool waitForQueue = true;
};

/// Invoked exactly once per submit() with the query's final result — on
/// the submitting thread (cache hit, admission reject, cancelled, every
/// push refused at shutdown), a worker thread (last partition answered),
/// or the deadline timer thread (expiry with partials). Must not block for
/// long: it runs inside serving threads.
using QueryCompletion = std::function<void(QueryResult)>;

class QueryBroker {
 public:
  /// Serves `index` (one entry per logical partition) on the cluster
  /// described by `instance`: physical shard s of replica group g is a
  /// copy of partition g hosted on mapping[s]. Requires
  /// instance.replicaGroupCount() == index.shardCount() and a complete
  /// mapping. Spawns the worker pools; ready on return.
  ///
  /// `liveShards`, when non-empty (one entry per *physical* shard, each a
  /// segment-backed copy of its replica group's partition), puts the broker
  /// in live-migration mode: workers execute against the per-shard live
  /// index instead of the shared in-memory partition, and
  /// applyShardMove() may swap individual entries while serving. Global
  /// statistics still come from `index`, so scores are bit-identical in
  /// both modes.
  QueryBroker(const Instance& instance, std::vector<MachineId> mapping,
              const PartitionedIndex& index, ServeConfig config,
              std::vector<std::shared_ptr<const InvertedIndex>> liveShards = {});
  ~QueryBroker();

  QueryBroker(const QueryBroker&) = delete;
  QueryBroker& operator=(const QueryBroker&) = delete;

  /// Serves one query on behalf of `tenant` (an index into
  /// ServeConfig::tenants; tenant 0 is the implicit default tenant, or the
  /// first registered one); thread-safe, blocking (bounded by the deadline
  /// when one is configured). After shutdown() returns cancelled results.
  /// The query first passes token admission — a rejection returns with
  /// result.rejected set — and its tasks are dispatched in fair-share order
  /// against the tenant's weight. Throws std::out_of_range on an unknown
  /// tenant id.
  /// Implemented as submit() + wait, so sync and async callers share one
  /// code path.
  QueryResult execute(const std::vector<TermId>& terms, TenantId tenant = 0);

  /// Asynchronous serve: no thread blocks per in-flight query. The
  /// completion is invoked exactly once on every path — cache hit,
  /// admission reject, shutdown-cancelled, push failure, deadline expiry
  /// (partial result via the timer thread), and normal completion (the
  /// worker answering the last partition delivers). Returns false when
  /// no slot was free (or a queue closed by shutdown refused a task) — the
  /// scheduling layer's backpressure signal to the transport; the
  /// completion still fires with the rejected or degraded result.
  /// Throws std::out_of_range on an unknown tenant id.
  bool submit(const std::vector<TermId>& terms, const SubmitOptions& options,
              QueryCompletion completion);

  /// Atomically swaps the shard -> machine mapping (a rebalance landing).
  /// Tasks already queued complete on their previous machines. The result
  /// cache is untouched: placement does not change any answer.
  void applyMapping(const std::vector<MachineId>& newMapping);

  /// Atomic per-shard cutover of one live migration move: requires
  /// mapping[shard] == from; swaps the routing entry to `to` under the
  /// mapping lock, installs `replacement` as the shard's live index (when
  /// in live mode and non-null), and zeroes the shard's ObservedLoad window
  /// accumulators so the departed replica's heat does not linger in
  /// /debug/shards. The result cache is untouched, which is sound because
  /// the replacement must hold the content it replaces: when both indexes
  /// are segment-backed their footers must agree (sameSegmentContent),
  /// else std::invalid_argument is thrown before routing changes.
  /// Returns the previous live index (null outside live mode); the caller
  /// drains it — waits for in-flight tasks to release their references —
  /// before dropping the source file.
  std::shared_ptr<const InvertedIndex> applyShardMove(
      ShardId shard, MachineId from, MachineId to,
      std::shared_ptr<const InvertedIndex> replacement = nullptr);

  bool liveMode() const noexcept { return liveMode_; }

  /// Harvests the measurement window that started at construction or at
  /// the previous snapshot, and begins a new one.
  ObservedLoad takeObservedLoad();

  /// Reads the in-progress window *without* resetting it — the live view
  /// the HTTP introspection endpoints serve. Safe to call concurrently
  /// with serving and with takeObservedLoad (which still owns the
  /// harvest-and-reset cycle).
  ObservedLoad peekObservedLoad() const;

  /// JSON for /debug/broker: per-machine queue depth, worker count, busy
  /// fraction, window aggregates (queries, shed, expired), and the result
  /// cache's capacity, entries and lifetime counters.
  std::string debugJson() const;
  /// JSON for /debug/shards: per-shard heat from the live ObservedLoad
  /// window — tasks, postings scanned, busy seconds, and the machine each
  /// physical shard is currently mapped to — plus the memory of the index
  /// it serves: index_bytes (what the planner charges) and resident_bytes
  /// (what the shard actually holds, InvertedIndex::residentBytes).
  std::string shardsJson() const;
  /// JSON for /debug/tenants: per-tenant spec (weight, guarantee, burst
  /// cap), live token state (held / entitled / cap), window heat, and the
  /// tenant's SLO snapshot (when it has a window).
  std::string tenantsJson() const;

  /// Entries currently held by the deadline timer heap (armed queries
  /// plus not-yet-compacted dead entries). Observability/test hook: with
  /// long deadlines this must track live queries, not deadline x QPS.
  std::size_t deadlineHeapSize() const;

  /// Stops accepting queries, drains accepted work, joins all workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  const std::vector<MachineId>& mapping() const noexcept { return mapping_; }
  std::size_t machineCount() const noexcept { return queues_.size(); }
  std::size_t workerCount(std::size_t machine) const {
    return workersPerMachine_.at(machine);
  }
  std::size_t queueDepth(std::size_t machine) const {
    return queues_.at(machine)->size();
  }
  CacheStats cacheStats() const { return cache_.stats(); }
  /// Drops every cached result (full teardown; counted in cacheStats()'s
  /// invalidations). Moves never need it.
  void clearCache() { cache_.clear(); }

  /// The validated tenant table (count() == 1 with the implicit "default"
  /// spec when no tenants are configured).
  const TenantRegistry& tenantRegistry() const noexcept { return registry_; }
  /// The admission token bank; never null.
  const TokenBank* tokenBank() const noexcept { return bank_.get(); }

 private:
  struct PendingQuery;
  struct Task {
    std::shared_ptr<PendingQuery> pending;
    std::uint32_t partition = 0;
    ShardId physicalShard = 0;
    /// Request-scoped trace linkage (inert when the query is untraced):
    /// the query's root span is the parent, so per-partition execution
    /// spans recorded by workers attach to the client's trace tree.
    obs::TraceContext trace;
    std::uint64_t enqueueUs = 0;  ///< tracer-epoch micros at enqueue
    std::uint32_t depthAtDispatch = 0;
  };
  struct MachineStats;
  struct TenantStats;

  void workerLoop(std::size_t machine);
  /// Records a served query's latency and SLO outcome.
  void recordServed(TenantId tenant, double seconds, bool error);
  /// Merges partials, accounts the outcome (cache/latency/SLO/trace), and
  /// invokes the completion — exactly once per query, guarded by
  /// PendingQuery::delivered. `viaTimer` marks a deadline expiry (the
  /// query is flagged expired so still-queued tasks shed).
  void deliver(const std::shared_ptr<PendingQuery>& pending, bool viaTimer);
  /// Registers a pending query with the deadline timer thread, which
  /// delivers the partial result at expiry if no worker finished it first.
  void armDeadline(std::shared_ptr<PendingQuery> pending);
  void timerLoop();
  void rebuildHosts(const std::vector<MachineId>& mapping);
  /// Shared body of take/peekObservedLoad: reads the window, and when
  /// `resetWindow` also zeroes the accumulators and restarts it.
  ObservedLoad harvestObservedLoad(bool resetWindow);

  const PartitionedIndex& index_;
  ServeConfig config_;
  std::size_t partitionCount_ = 0;
  /// Replica group (== logical partition) of each physical shard, copied
  /// from the instance so remaps can rebuild the routing table.
  std::vector<std::uint32_t> groupOf_;

  // Routing state, swapped wholesale by applyMapping under mappingMutex_.
  mutable std::shared_mutex mappingMutex_;
  std::vector<MachineId> mapping_;
  /// hosts_[g] = (machine, physical shard) per replica of partition g.
  std::vector<std::vector<std::pair<MachineId, ShardId>>> hosts_;

  /// Live-migration mode: per-physical-shard segment-backed indexes.
  /// Workers copy the shared_ptr under a shared lock per task, so a cutover
  /// swap never invalidates an in-flight execution — the old index dies
  /// only when its last task releases it (drain-by-refcount).
  bool liveMode_ = false;
  mutable std::shared_mutex liveMutex_;
  std::vector<std::shared_ptr<const InvertedIndex>> liveShards_;

  std::vector<std::unique_ptr<FairShareQueue<Task>>> queues_;
  std::vector<std::size_t> workersPerMachine_;
  std::vector<std::thread> workers_;

  // Tenant layer. registry_ always holds at least one spec (the implicit
  // "default" when none are configured). tenantSlos_[t] is null only for
  // an implicit tenant without ServeConfig::sloClass.
  TenantRegistry registry_;
  std::unique_ptr<TokenBank> bank_;
  std::vector<std::unique_ptr<TenantStats>> tenantStats_;
  std::vector<obs::SloWindow*> tenantSlos_;

  ShardedLruCache cache_;

  // Window accumulators (see takeObservedLoad).
  std::vector<std::unique_ptr<MachineStats>> machineStats_;
  std::vector<std::atomic<std::uint64_t>> shardTasks_;
  std::vector<std::atomic<std::uint64_t>> shardPostings_;
  /// Nanoseconds, so the hot path stays a relaxed integer add.
  std::vector<std::atomic<std::uint64_t>> shardBusyNanos_;
  std::atomic<std::uint64_t> blocksDecoded_{0};
  std::atomic<std::uint64_t> blocksSkipped_{0};
  std::atomic<std::uint64_t> heapPrunes_{0};
  std::mutex windowMutex_;  ///< guards windowStart_
  std::chrono::steady_clock::time_point windowStart_;

  // Deadline timer: a min-heap of armed pending queries serviced by one
  // thread. Entries hold weak_ptrs — outstanding tasks keep an
  // undelivered query alive, so a delivered one frees as soon as its
  // tasks drain instead of being pinned until its deadline. Dead entries
  // are compacted when the heap doubles past timerCompactAt_; delivering
  // early still makes the timer's later attempt a no-op (the delivered
  // flag wins).
  struct DeadlineEntry;
  static constexpr std::size_t kTimerCompactFloor = 1024;
  mutable std::mutex timerMutex_;
  std::condition_variable timerCv_;
  std::vector<DeadlineEntry> timerHeap_;
  std::size_t timerCompactAt_ = kTimerCompactFloor;
  bool timerStop_ = false;
  std::thread timerThread_;

  std::atomic<bool> accepting_{false};
  std::once_flag shutdownOnce_;
};

}  // namespace resex::serve
