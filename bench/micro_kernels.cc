// google-benchmark microbenches for the engine's native kernels: B+-tree,
// cache simulator, hash join, TPC-C transactions, tracer overhead, replay
// scheduling.
// These measure the *native* cost of the reproduction's substrates (how
// fast the simulator itself runs), not simulated cycles.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <unordered_map>

#include "common/arena.h"
#include "common/flat_hash.h"
#include "common/rng.h"
#include "coresim/cmp.h"
#include "db/bptree.h"
#include "db/exec.h"
#include "harness/experiment.h"
#include "memsim/cache.h"
#include "memsim/hierarchy.h"
#include "sweep/trace_bundle.h"
#include "synthetic_trace.h"
#include "trace/tracer.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"

using namespace stagedcmp;

static void BM_CacheAccess(benchmark::State& state) {
  memsim::Cache cache(
      memsim::CacheConfig{static_cast<uint64_t>(state.range(0)), 8, 64});
  Rng rng(1);
  for (auto _ : state) {
    const uint64_t line = rng.Next() % 100000;
    const memsim::Cache::ProbeResult p = cache.Probe(line);
    if (!cache.AccessAt(p, false)) cache.FillAt(p, line, false);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(64 << 10)->Arg(1 << 20)->Arg(16 << 20);

// Pure hit loop over a resident footprint: the L1 fast path the replay
// cores take on the overwhelming majority of accesses. Regressions here
// are invisible in end-to-end sweeps until they compound.
static void BM_CacheHitLoop(benchmark::State& state) {
  memsim::Cache cache(memsim::CacheConfig{64 << 10, 8, 64});
  constexpr uint64_t kLines = 256;  // fits: 1024 ways
  for (uint64_t l = 0; l < kLines; ++l) {
    cache.FillAt(cache.Probe(l), l, false);
  }
  uint64_t line = 0;
  for (auto _ : state) {
    const memsim::Cache::ProbeResult p = cache.Probe(line);
    benchmark::DoNotOptimize(cache.AccessAt(p, false));
    line = (line + 1) % kLines;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitLoop);

// Miss + evict loop: every access conflicts in one set, so each iteration
// pays the probe, the victim scan, and the eviction bookkeeping — one
// tag scan, reused by AccessAt and FillAt.
static void BM_CacheMissEvict(benchmark::State& state) {
  memsim::Cache cache(memsim::CacheConfig{64 << 10, 8, 64});
  const uint64_t sets = (64 << 10) / (8 * 64);
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t line = (i++) * sets;  // same set every time
    const memsim::Cache::ProbeResult p = cache.Probe(line);
    cache.AccessAt(p, false);
    benchmark::DoNotOptimize(cache.FillAt(p, line, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissEvict);

// Directory churn, flat open-addressed table: the CMP L1 directory's
// life — FindOrInsert on fill, Find + Erase on eviction, over a working
// set that cycles like L1 contents do.
static void BM_FlatDirChurn(benchmark::State& state) {
  struct DirEntry {
    uint32_t sharers = 0;
    int8_t dirty_owner = -1;
  };
  FlatMap64<DirEntry> dir(1 << 12);
  constexpr uint64_t kWindow = 2048;  // lines resident at once
  uint64_t next = 0;
  for (; next < kWindow; ++next) dir.FindOrInsert(next).sharers = 1;
  for (auto _ : state) {
    dir.FindOrInsert(next).sharers |= 1;
    benchmark::DoNotOptimize(dir.Find(next - kWindow / 2));
    dir.Erase(next - kWindow);
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatDirChurn);

// Same churn on std::unordered_map — the container the directory used
// before the flat table; kept as the comparison arm.
static void BM_UnorderedDirChurn(benchmark::State& state) {
  struct DirEntry {
    uint32_t sharers = 0;
    int8_t dirty_owner = -1;
  };
  std::unordered_map<uint64_t, DirEntry> dir;
  dir.reserve(1 << 12);
  constexpr uint64_t kWindow = 2048;
  uint64_t next = 0;
  for (; next < kWindow; ++next) dir[next].sharers = 1;
  for (auto _ : state) {
    dir[next].sharers |= 1;
    auto it = dir.find(next - kWindow / 2);
    benchmark::DoNotOptimize(it);
    dir.erase(next - kWindow);
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnorderedDirChurn);

static void BM_BtreeLookup(benchmark::State& state) {
  Arena arena;
  db::BPlusTree tree(&arena);
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 0; i < n; ++i) tree.Insert(i * 7 % n, i, nullptr);
  Rng rng(2);
  uint64_t v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(rng.Next() % n, &v, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeLookup)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

static void BM_BtreeInsert(benchmark::State& state) {
  Arena arena;
  db::BPlusTree tree(&arena);
  Rng rng(3);
  uint64_t i = 0;
  for (auto _ : state) {
    tree.Insert(rng.Next(), ++i, nullptr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeInsert);

static void BM_TracerMemEvent(benchmark::State& state) {
  const trace::RegionSet regions;
  trace::Tracer tracer(&regions);
  char buf[256];
  for (auto _ : state) {
    tracer.Read(buf, 64, 4);
    if (tracer.events_size() > (1u << 20)) {
      state.PauseTiming();
      tracer.Reset();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerMemEvent);

static void BM_TpccNewOrderNative(benchmark::State& state) {
  workload::Database db;
  workload::TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.customers_per_district = 120;
  cfg.items = 1000;
  cfg.initial_orders_per_district = 30;
  workload::TpccLoad(&db, cfg);
  workload::TpccDriver driver(&db, cfg, 1, 5);
  const trace::RegionSet regions;
  trace::Tracer tracer(&regions);
  for (auto _ : state) {
    driver.Run(workload::TpccTxnType::kNewOrder, &tracer);
    if (tracer.events_size() > (1u << 20)) {
      state.PauseTiming();
      tracer.Reset();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TpccNewOrderNative);

// A database-sized Arena's life: 4 MB blocks (the Database arena's),
// one byte written per 4 KB page across 64 MB, then the arena dies and
// unmaps them. ns/page is the first-touch cost; faults/iter counts the
// minor page faults each life takes (about 32 with huge pages, 16k
// with 4 KB ones).
static void BM_ArenaTouch(benchmark::State& state) {
  constexpr size_t kBytes = size_t{64} << 20;
  constexpr size_t kChunk = size_t{1} << 20;  // four to a block
  constexpr size_t kPage = 4096;
  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    Arena arena(4 << 20);
    for (size_t done = 0; done < kBytes; done += kChunk) {
      char* p = static_cast<char*>(arena.Allocate(kChunk, kPage));
      benchmark::DoNotOptimize(p);
      for (size_t off = 0; off < kChunk; off += kPage) p[off] = 1;
    }
    benchmark::ClobberMemory();
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);
  const double iters = static_cast<double>(state.iterations());
  state.counters["ns/page"] = ns / (iters * (kBytes / kPage));
  state.counters["faults/iter"] =
      static_cast<double>(ru1.ru_minflt - ru0.ru_minflt) / iters;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBytes / kPage));
}
BENCHMARK(BM_ArenaTouch);

// The trace event codec (trace/events.h) over a recorded TPC-C mix of
// about 256k events: encoding as the tracer emits, decoding as replay
// reads, and a plain read of the same words as 8-byte raw storage (the
// reference the codec trades decode time against). Items are events.
namespace {
const std::vector<uint64_t>& RecordedEvents() {
  static const std::vector<uint64_t> events = [] {
    workload::Database db;
    workload::TpccConfig cfg;
    cfg.warehouses = 2;
    cfg.customers_per_district = 120;
    cfg.items = 1000;
    cfg.initial_orders_per_district = 30;
    workload::TpccLoad(&db, cfg);
    workload::TpccDriver driver(&db, cfg, 1, 5);
    const trace::RegionSet regions;
    trace::Tracer tracer(&regions);
    while (tracer.events_size() < (1u << 18)) driver.RunOne(&tracer);
    return trace::DecodeEvents(tracer.TakeTrace());
  }();
  return events;
}
}  // namespace

static void BM_TraceEncode(benchmark::State& state) {
  const std::vector<uint64_t>& events = RecordedEvents();
  for (auto _ : state) {
    trace::ClientTrace t;
    trace::EncodeEvents(events, &t);
    benchmark::DoNotOptimize(t.payload());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_TraceEncode);

static void BM_TraceDecode(benchmark::State& state) {
  const std::vector<uint64_t>& events = RecordedEvents();
  trace::ClientTrace t;
  trace::EncodeEvents(events, &t);
  state.counters["bytes/event"] =
      static_cast<double>(t.payload_words() * 8) / events.size();
  for (auto _ : state) {
    uint64_t x = 0;
    for (trace::EventCursor c(t); !c.done();) x += c.Next();
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_TraceDecode);

static void BM_TraceRawRead(benchmark::State& state) {
  const std::vector<uint64_t>& events = RecordedEvents();
  for (auto _ : state) {
    uint64_t x = 0;
    for (uint64_t e : events) {
      x += e;
      benchmark::DoNotOptimize(x);  // one word at a time, as replay reads
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_TraceRawRead);

namespace {
/// SMP coherence-churn workload: a hot write-shared region plus per-node
/// working sets far larger than the (1MB) private L2s, so most data
/// accesses miss locally and resolve through coherence.
struct SmpChurnStream {
  static constexpr uint32_t kNodes = 64;

  static memsim::HierarchyConfig Config() {
    memsim::HierarchyConfig hc;
    hc.num_cores = kNodes;
    hc.l2 = memsim::CacheConfig{1ull << 20, 8, 64};
    return hc;
  }

  struct Access {
    uint32_t node;
    uint64_t addr;
    bool is_write;
  };

  Access Next() {
    Access a;
    a.node = static_cast<uint32_t>(rng.Next() % kNodes);
    a.is_write = (rng.Next() % 6) == 0;
    a.addr = (rng.Next() & 3) == 0
                 ? 0x1000000 + (rng.Next() % (256ull << 10))
                 : 0x100000000ull + a.node * (64ull << 20) +
                       (rng.Next() % (8ull << 20));
    a.addr &= ~63ull;
    return a;
  }

  Rng rng{42};
};
}  // namespace

// SMP coherence churn at 64 nodes: each local L2 miss and upgrade visits
// only the directory's sharer bits (usually zero or one) rather than all
// 63 peers.
static void BM_SmpDirectoryChurn(benchmark::State& state) {
  memsim::PrivateL2Hierarchy h(SmpChurnStream::Config());
  SmpChurnStream stream;
  uint64_t now = 0;
  for (auto _ : state) {
    const SmpChurnStream::Access a = stream.Next();
    h.AccessData(a.node, a.addr, a.is_write, ++now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SmpDirectoryChurn);

// SMP read misses at 64 and 1024 nodes: the nodes take turns reading one
// shared region twice the size of their L2s, all walking it in lockstep,
// so every access is an L2 read miss on a line most peers hold Shared.
// A read miss changes at most the line's one E/M owner, so items/s shows
// whether its cost grows with the number of holders.
static void BM_SmpSharedReadMiss(benchmark::State& state) {
  const auto nodes = static_cast<uint32_t>(state.range(0));
  constexpr uint64_t kL2Bytes = 64 << 10;
  constexpr uint64_t kRegionLines = 2 * kL2Bytes / 64;
  memsim::HierarchyConfig hc;
  hc.num_cores = nodes;
  hc.l1i = memsim::CacheConfig{16 << 10, 4, 64};
  hc.l1d = memsim::CacheConfig{16 << 10, 4, 64};
  hc.l2 = memsim::CacheConfig{kL2Bytes, 8, 64};
  auto h = memsim::MakeSmpHierarchy(hc);
  uint32_t node = 0;
  uint64_t line = 0;
  uint64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        h->AccessData(node, 0x1000000 + line * 64, /*is_write=*/false, ++now));
    if (++node == nodes) {
      node = 0;
      if (++line == kRegionLines) line = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SmpSharedReadMiss)->Arg(64)->Arg(1024);

static void BM_CmpHierarchyAccess(benchmark::State& state) {
  memsim::HierarchyConfig hc;
  hc.num_cores = 4;
  auto h = memsim::MakeCmpHierarchy(hc);
  Rng rng(7);
  uint64_t now = 0;
  for (auto _ : state) {
    h->AccessData(static_cast<uint32_t>(rng.Next() % 4),
                  (rng.Next() % (1 << 26)), (rng.Next() & 7) == 0, ++now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CmpHierarchyAccess);

// Replay scheduling across machine sizes: one synthetic client per core
// (tests/synthetic_trace.h, 128k events in all) replayed on a CMP of 16,
// 256 and 1024 tiles. Per event the engine picks the next core, steps it
// and updates its hierarchy, so the gap between sizes is the host cost
// of scheduling more cores. Reported as events/s.
static void BM_ReplayCores(benchmark::State& state) {
  constexpr size_t kEvents = 128 * 1024;
  const auto cores = static_cast<uint32_t>(state.range(0));
  const std::vector<trace::ClientTrace> traces =
      synthetic::MakeTraces(/*seed=*/5, cores, kEvents / cores);
  std::vector<const trace::ClientTrace*> ptrs;
  for (const auto& t : traces) ptrs.push_back(&t);
  memsim::HierarchyConfig hc;
  hc.num_cores = cores;
  coresim::SimConfig sc;
  sc.num_cores = cores;
  uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto h = memsim::MakeCmpHierarchy(hc);
    coresim::CmpSimulator sim(sc, h.get(), ptrs);
    state.ResumeTiming();
    const coresim::SimResult r = sim.Run();
    benchmark::DoNotOptimize(r);
    events += r.events_replayed;
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReplayCores)->Arg(16)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Warm bundle open on one synthetic bundle (4M fabricated trace words,
// about 45 MiB encoded since random words leave no deltas to exploit —
// the loader never interprets payloads, so no workload build is
// needed). The open maps the file, validates only the header and returns
// zero-copy views, deferring payload checksums to the builder threads, so
// its cost should stay flat in the payload size.
namespace {
struct SyntheticBundle {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig cfg;
  std::string path = "/tmp/stagedcmp_bm_bundle.traces";

  SyntheticBundle() {
    cfg.clients = 8;
    cfg.requests_per_client = 1;
    cfg.seed = 1;
    harness::TraceSet set;
    set.config = cfg;
    Rng rng(99);
    constexpr uint64_t kWordsPerClient = 512 * 1024;  // 8 * 4 MiB total
    for (uint32_t c = 0; c < cfg.clients; ++c) {
      trace::ClientTrace t;
      t.requests = 1;
      trace::EventEncoder events;
      for (uint64_t i = 0; i < kWordsPerClient; ++i) events.Append(rng.Next());
      events.Finish(&t);
      t.total_instructions = kWordsPerClient;
      set.total_instructions += t.total_instructions;
      set.total_events += t.events_size();
      set.traces.push_back(std::move(t));
    }
    sweep::SaveTraceBundle(path, factory, {&set});
  }
};
}  // namespace

static void BM_BundleWarmMmap(benchmark::State& state) {
  static SyntheticBundle bundle;
  uint64_t bytes = 0;
  for (auto _ : state) {
    sweep::BundleOpenResult r =
        sweep::OpenTraceBundle(bundle.path, bundle.factory, {bundle.cfg});
    if (r.mode != "mmap") {
      state.SkipWithError("mmap open failed");
      break;
    }
    benchmark::DoNotOptimize(r.sets);
    for (const trace::ClientTrace& t : r.sets[0].traces) {
      bytes += t.payload_words() * 8;
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_BundleWarmMmap);

BENCHMARK_MAIN();
