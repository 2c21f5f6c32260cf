// Self-tests of the benchmark's own machinery, run by
// `python3 perfbench/run.py --self-test`:
//
//   * the TimedDetector decorator is transparent: JointResults and state
//     blobs are byte-identical with and without it, in the sequential
//     (AlertJoiner) and the sharded (ShardedPipeline) pool;
//   * the correctness gates bite: a pool with one verdict flipped fails the
//     engine gate and the tail reference check, and the run's accounting
//     then fails every record; the honest pool passes both.
#include <cstdio>
#include <string>

#include "core/export.hpp"
#include "core/joiner.hpp"
#include "pipeline/record_batch.hpp"
#include "pipeline/sharded.hpp"
#include "util/state.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace divscrape;

constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kFlipAt = 1000;
const EngineWorkload kSmallEngine{"amadeus_like", 0.02, 0.02, false};
const TailWorkload kSmallTail{"amadeus_like", 0.02, 16 * 1024};

bool report(const char* check, bool ok, const std::string& detail = {}) {
  std::printf("%s  %s%s%s\n", ok ? "PASS" : "FAIL", check,
              detail.empty() ? "" : ": ", detail.c_str());
  return ok;
}

std::string joiner_state(const core::AlertJoiner& joiner) {
  util::StateWriter w;
  return joiner.save_state(w) ? w.take() : std::string("<unsupported>");
}

std::string pipeline_state(pipeline::ShardedPipeline& sharded) {
  util::StateWriter w;
  return sharded.save_state(w) ? w.take() : std::string("<unsupported>");
}

/// Plain vs timed pools over one generated stream, sequential and sharded.
bool decorator_is_transparent() {
  auto spec = workload::catalog_entry(kSmallEngine.catalog,
                                      kSmallEngine.scale);
  spec->seed = kSeed;
  workload::WorkloadEngine engine(std::move(*spec));
  PoolMaker plain(false);
  PoolMaker timed(true);
  const Pool plain_pool = plain.make();
  const Pool timed_pool = timed.make();
  core::AlertJoiner plain_joiner(plain_pool);
  core::AlertJoiner timed_joiner(timed_pool);
  pipeline::ShardedPipeline plain_sharded([&plain] { return plain.make(); },
                                          2);
  pipeline::ShardedPipeline timed_sharded([&timed] { return timed.make(); },
                                          2);
  pipeline::BatchPool batches;
  (void)engine.run_batched(
      [&](pipeline::RecordBatch&& batch) {
        pipeline::RecordBatch copy = timed_sharded.batch_pool().acquire();
        for (const auto& record : batch) {
          (void)plain_joiner.process(record);
          (void)timed_joiner.process(record);
          copy.append_slot() = record;
        }
        timed_sharded.process_batch(std::move(copy));
        plain_sharded.process_batch(std::move(batch));
      },
      kBatchRecords, &batches);

  const std::string plain_blob = pipeline_state(plain_sharded);
  const std::string timed_blob = pipeline_state(timed_sharded);
  const std::string plain_json = core::to_json(plain_sharded.finish());
  const std::string timed_json = core::to_json(timed_sharded.finish());
  // The shard workers are joined now, so the timed counters are readable.
  bool ok = report("decorator forwards evaluate to both pools",
                   timed.evals("sentinel") > 0 && timed.evals("arcane") > 0);
  ok &= report("sequential JointResults identical with the decorator",
               core::to_json(plain_joiner.results()) ==
                   core::to_json(timed_joiner.results()));
  ok &= report("sequential state blob identical with the decorator",
               joiner_state(plain_joiner) == joiner_state(timed_joiner));
  ok &= report("sharded state blob identical with the decorator",
               plain_blob == timed_blob);
  ok &= report("sharded JointResults identical with the decorator",
               plain_json == timed_json);
  return ok;
}

bool engine_gate_bites() {
  const std::string honest = engine_gate(kSmallEngine, kSeed);
  bool ok = report("engine gate passes the honest pool", honest.empty(),
                   honest);
  const std::string flipped = engine_gate(kSmallEngine, kSeed, kFlipAt);
  ok &= report("engine gate fails a pool with one verdict flipped",
               !flipped.empty(), flipped);
  Trace off;
  const std::vector<PassResult> passes{
      run_engine_pass(kSmallEngine, kSeed, off)};
  const Outcome outcome = account(passes, flipped);
  ok &= report("a failed engine gate fails every record",
               !outcome.correct && outcome.attempted > 0 &&
                   outcome.failed == outcome.attempted);
  return ok;
}

bool tail_check_bites(const std::string& dir) {
  const TailReference reference = tail_reference(kSmallTail, kSeed, dir);
  bool ok = report("tail references build", reference.error.empty(),
                   reference.error);
  Trace off;
  std::vector<PassResult> honest{run_tail_pass(kSmallTail, kSeed, off, dir)};
  check_against(honest[0], reference.results_json);
  ok &= report("tail pass matches the sequential live execution",
                   honest[0].error.empty() && honest[0].failed == 0,
                   honest[0].error);
  std::vector<PassResult> flipped{
      run_tail_pass(kSmallTail, kSeed, off, dir, kFlipAt)};
  check_against(flipped[0], reference.results_json);
  ok &= report("tail check fails a pool with one verdict flipped",
               !flipped[0].error.empty());
  const Outcome outcome = account(flipped, {});
  ok &= report("a failed tail check fails every record",
               !outcome.correct && outcome.attempted > 0 &&
                   outcome.failed == outcome.attempted);
  return ok;
}

}  // namespace

bool run_self_tests(const std::string& dir) {
  bool ok = decorator_is_transparent();
  ok &= engine_gate_bites();
  ok &= tail_check_bites(dir);
  std::printf("%s\n", ok ? "self-test: all checks passed"
                         : "self-test: FAILED");
  return ok;
}

}  // namespace perfbench
