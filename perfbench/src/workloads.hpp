// The benchmark's workloads: one timed pass of each, the correctness
// references they are checked against, and the detector pools they run.
//
// Every pass goes through the batch seams only (WorkloadEngine::run_batched,
// MultiTailer in batch-sink mode, ShardedPipeline::process_batch,
// ReplayEngine::replay), never through the per-record twins.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "timed_detector.hpp"
#include "trace.hpp"

namespace perfbench {

/// Records per RecordBatch on every batch seam (the CLI's value).
inline constexpr std::size_t kBatchRecords = 1024;

/// Makes paper pairs (Sentinel, Arcane) on demand. In timed mode every
/// member is a TimedDetector and the maker keeps a non-owning pointer to
/// it, so the counters can be summed while the pools are alive. With
/// `flip_at` set, the first pool's Sentinel inverts that one verdict.
class PoolMaker {
 public:
  explicit PoolMaker(bool timed, std::optional<std::uint64_t> flip_at = {})
      : timed_(timed), flip_at_(flip_at) {}

  [[nodiscard]] Pool make();

  /// Sums over every TimedDetector made whose name() is `name`.
  [[nodiscard]] std::int64_t eval_ns(std::string_view name) const;
  [[nodiscard]] std::uint64_t evals(std::string_view name) const;
  /// The largest single detector's share of those evaluations: 1/shards
  /// when a ShardedPipeline spreads records evenly, 1 when one shard gets
  /// them all.
  [[nodiscard]] double max_share(std::string_view name) const;
  /// Sum of the save_state() blob sizes of those detectors.
  [[nodiscard]] std::uint64_t state_bytes(std::string_view name) const;

 private:
  bool timed_;
  std::optional<std::uint64_t> flip_at_;
  std::vector<TimedDetector*> made_;
};

/// An in-memory workload: a catalog scenario through WorkloadEngine
/// (8 partitions, 1 generator thread) -> run_batched -> AlertJoiner.
struct EngineWorkload {
  const char* catalog;
  double scale;       ///< timed passes
  double gate_scale;  ///< sequential-vs-sharded gate
  bool lazy_actors;   ///< EngineConfig::lazy_actors, as `--lazy` sets it
};

/// The live-ingest workload: a catalog scenario split by /24 into
/// kTailFiles source logs, appended chunk by chunk to live logs that a
/// MultiTailer follows into a ShardedPipeline.
struct TailWorkload {
  const char* catalog;
  double scale;
  std::size_t chunk_bytes;  ///< bytes appended per source per round
};

/// One pass of a workload.
struct PassResult {
  std::uint64_t attempted = 0;  ///< records offered to the program
  std::uint64_t completed = 0;  ///< records that reached the results
  std::uint64_t failed = 0;     ///< lost, duplicated, skipped, read errors
  std::string error;            ///< non-empty: a check of this pass failed
  double setup_s = 0.0;
  double timed_s = 0.0;
  double cpu_s = 0.0;  ///< process user+sys CPU over the timed region
  double peak_rss_mb = 0.0;  ///< process peak RSS over the pass, set-up included
  std::string results_json;
  /// Per-layer metrics (traced passes only), keyed by BENCHMARK.json name.
  std::map<std::string, double> layers;
};

/// What a run reports about correctness: every record attempted, and those
/// that failed. A failed check (a pass error or a failed gate) fails every
/// record of the run.
struct Outcome {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
[[nodiscard]] Outcome account(const std::vector<PassResult>& passes,
                              const std::string& gate_error);

/// Marks `pass` failed unless its results serialize to `reference`.
void check_against(PassResult& pass, const std::string& reference);

/// Median of `values`; 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// One timed pass; traced when `trace` is enabled.
[[nodiscard]] PassResult run_engine_pass(const EngineWorkload& w,
                                         std::uint64_t seed, Trace& trace);

/// Sequential-vs-sharded gate at w.gate_scale: the stream through an
/// AlertJoiner must serialize byte-identically to the same stream through
/// a 2-shard ShardedPipeline, and both must see every emitted record.
/// `flip_at` breaks the joiner's pool (PoolMaker). Returns "" on a pass,
/// else what differed.
[[nodiscard]] std::string engine_gate(
    const EngineWorkload& w, std::uint64_t seed,
    std::optional<std::uint64_t> flip_at = {});

/// The references of one tail input. `results_json` comes from the same
/// append/poll/persist schedule as a timed pass, consumed by a sequential
/// ReplayEngine instead of the sharded pipeline; timed passes must match
/// it byte for byte. The one-shot replay of the concatenated source logs
/// is the single-thread baseline. MultiTailer's forced and late emissions
/// can make the live results differ from that replay (an open defect);
/// `matches_one_shot_replay` records whether they did.
struct TailReference {
  std::string results_json;
  std::string error;  ///< non-empty: no usable reference
  bool matches_one_shot_replay = false;
  double replay_ns_per_rec = 0.0;
};
/// Live logs go under `dir`, which must exist.
[[nodiscard]] TailReference tail_reference(const TailWorkload& w,
                                           std::uint64_t seed,
                                           const std::string& dir);

/// One timed pass of the tail workload. Live logs and checkpoints go under
/// `dir`, which must exist. `flip_at` breaks the first shard's pool
/// (PoolMaker).
[[nodiscard]] PassResult run_tail_pass(
    const TailWorkload& w, std::uint64_t seed, Trace& trace,
    const std::string& dir, std::optional<std::uint64_t> flip_at = {});

/// Runs the self-tests (decorator transparency, gates that bite); prints
/// one line per check. Returns true when all pass.
[[nodiscard]] bool run_self_tests(const std::string& dir);

}  // namespace perfbench
