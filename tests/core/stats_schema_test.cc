// The stats schemas (util/stats.h): the literal field names every
// surface renders — `check --stats`, `check --stats-json`, the serve
// `stats` reply and the fleet worker summary all loop over these lists,
// so adding, renaming or removing a counter must show up here — plus
// the merge rules and the renderers derived from them.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "core/pipeline_cache.h"
#include "core/server.h"
#include "util/stats.h"

namespace hornsafe {
namespace {

TEST(StatsSchemaTest, AnalyzerCounterNamesArePinned) {
  EXPECT_EQ(StatNames<AnalyzerCounters>(),
            (std::vector<std::string>{
                "positions_analyzed", "subset_searches", "steps",
                "graphs_checked", "memo_hits", "memo_misses",
                "scc_short_circuits", "parallel_tasks", "serial_tasks",
                "cache_hits", "cache_misses", "snapshot_swaps",
                "stage_canonicalize_ns", "stage_fingerprint_ns",
                "stage_fd_ns", "stage_adorn_ns", "stage_build_ns",
                "stage_prune_ns", "stage_scc_ns", "stage_search_ns",
                "segments_total", "segments_grafted",
                "segment_grafts_rejected", "segments_encoded",
                "nodes_shared", "nodes_owned", "node_table_peak_nodes",
                "node_table_peak_bytes"}));
}

TEST(StatsSchemaTest, CacheStatNamesArePinned) {
  EXPECT_EQ(StatNames<PipelineCacheStats>(),
            (std::vector<std::string>{
                "verdict_hits", "verdict_misses", "verdict_insertions",
                "verdict_evictions", "disk_hits", "disk_misses",
                "disk_corrupt", "disk_write_failures", "disk_read_failures",
                "disk_write_skips", "disk_retry_attempts",
                "lease_acquisitions", "torn_tails_repaired",
                "compactions_run", "compactions_skipped",
                "compaction_entries_removed", "compaction_bytes_removed",
                "cones_invalidated", "segment_hits", "segment_misses",
                "segment_insertions", "segment_evictions"}));
}

TEST(StatsSchemaTest, ServerCounterNamesArePinned) {
  EXPECT_EQ(StatNames<Server::Counters>(),
            (std::vector<std::string>{"requests", "served", "errors",
                                      "shed"}));
}

TEST(StatsSchemaTest, EveryFieldIsInTheSchema) {
  // A field left out of the list would silently drop off every
  // surface: the struct holds exactly the listed uint64_t fields.
  EXPECT_EQ(sizeof(AnalyzerCounters),
            AnalyzerCounters::Fields().size() * sizeof(uint64_t));
  EXPECT_EQ(sizeof(Server::Counters),
            Server::Counters::Fields().size() * sizeof(uint64_t));
  // PipelineCacheStats carries the two canon_* fields outside it.
  EXPECT_EQ(sizeof(PipelineCacheStats),
            (PipelineCacheStats::Fields().size() + 2) * sizeof(uint64_t));
}

TEST(StatsSchemaTest, MergeSumsTalliesAndKeepsThePeak) {
  AnalyzerCounters a, b;
  a.steps = 5;
  a.node_table_peak_nodes = 40;
  b.steps = 7;
  b.node_table_peak_nodes = 30;
  MergeStats(b, &a);
  EXPECT_EQ(a.steps, 12u);
  EXPECT_EQ(a.node_table_peak_nodes, 40u);
  b.node_table_peak_nodes = 90;
  MergeStatsAtomic(b, &a);
  EXPECT_EQ(a.steps, 19u);
  EXPECT_EQ(a.node_table_peak_nodes, 90u);
}

TEST(StatsSchemaTest, ConcurrentBumpsAreExact) {
  AnalyzerCounters live;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&live, t] {
      for (int i = 0; i < 1000; ++i) {
        StatAdd(live.steps, 2);
        StatRaise(live.node_table_peak_bytes,
                  static_cast<uint64_t>(t * 1000 + i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  AnalyzerCounters seen = LoadStats(live);
  EXPECT_EQ(seen.steps, 8000u);
  EXPECT_EQ(seen.node_table_peak_bytes, 3999u);
}

TEST(StatsSchemaTest, JsonRoundTripsAndTextHasOneLinePerField) {
  PipelineCacheStats s;
  s.verdict_hits = 3;
  s.segment_evictions = 11;
  Json j = StatsToJson(s);
  ASSERT_EQ(j.members().size(), PipelineCacheStats::Fields().size());
  EXPECT_EQ(j["verdict_hits"].AsInt(), 3);
  PipelineCacheStats back = StatsFromJson<PipelineCacheStats>(j);
  EXPECT_EQ(back.verdict_hits, 3u);
  EXPECT_EQ(back.segment_evictions, 11u);
  EXPECT_EQ(back.disk_hits, 0u);

  std::string text = StatsToText(s);
  EXPECT_EQ(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')),
            PipelineCacheStats::Fields().size());
  EXPECT_EQ(text.rfind("  verdict_hits: 3\n", 0), 0u) << text;
  EXPECT_NE(text.find("\n  segment_evictions: 11\n"), std::string::npos);
}

}  // namespace
}  // namespace hornsafe
