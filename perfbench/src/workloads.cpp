#include "workloads.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/export.hpp"
#include "core/joiner.hpp"
#include "detectors/registry.hpp"
#include "httplog/clf.hpp"
#include "httplog/ip.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/record_batch.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/sharded.hpp"
#include "util/interner.hpp"
#include "util/state.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

namespace perfbench {

namespace {

using namespace divscrape;

/// Shards of every ShardedPipeline the benchmark builds (with one
/// dispatcher and the caller, the tail workload runs 4 threads).
constexpr std::size_t kShards = 2;
/// Live logs of the tail workload. Records are split by /24, the detector
/// state key, so every record that shares detector state is in one file.
constexpr std::size_t kTailFiles = 4;
/// Parsed records between persists (the CLI's --flush-every default).
constexpr std::uint64_t kFlushEvery = 100'000;

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double per_record(std::int64_t ns, std::uint64_t records) {
  return records == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(records);
}

std::uint64_t abs_diff(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

/// The scenario at `scale` with `seed` overriding ScenarioSpec::seed, and
/// an engine configured as `divscrape simulate [--lazy]` configures it.
std::unique_ptr<workload::WorkloadEngine> make_engine(const char* catalog,
                                                      double scale,
                                                      std::uint64_t seed,
                                                      bool lazy_actors) {
  auto spec = workload::catalog_entry(catalog, scale);
  if (!spec) throw std::invalid_argument("unknown catalog entry");
  spec->seed = seed;
  workload::EngineConfig config;
  config.gen_threads = 1;
  config.lazy_actors = lazy_actors;
  return std::make_unique<workload::WorkloadEngine>(std::move(*spec), config);
}

/// The source log of a record: its /24 network number modulo the file
/// count. (Ipv4Hash of a /24 prefix keeps the prefix's eight zero low
/// bits, so `hash % 4` would put every record in file 0.)
std::size_t tail_file_of(const httplog::LogRecord& record) {
  return (record.ip.value() >> 8) % kTailFiles;
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Closes the tail workload's file descriptors on every exit path.
struct FdSet {
  std::array<int, kTailFiles> fds{};
  FdSet() { fds.fill(-1); }
  ~FdSet() {
    for (const int fd : fds)
      if (fd >= 0) ::close(fd);
  }
  FdSet(const FdSet&) = delete;
  FdSet& operator=(const FdSet&) = delete;
};

/// User+sys CPU seconds of the whole process so far.
double cpu_seconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace

Pool PoolMaker::make() {
  Pool pool = detectors::make_paper_pair();
  if (flip_at_) {
    for (auto& member : pool) {
      if (member->name() == "sentinel") {
        member = std::make_unique<FlipVerdictDetector>(std::move(member),
                                                       *flip_at_);
      }
    }
    flip_at_.reset();  // one flipped verdict in the whole run
  }
  if (timed_) {
    for (auto& member : pool) {
      auto timed = std::make_unique<TimedDetector>(std::move(member));
      made_.push_back(timed.get());
      member = std::move(timed);
    }
  }
  return pool;
}

std::int64_t PoolMaker::eval_ns(std::string_view name) const {
  std::int64_t total = 0;
  for (const auto* d : made_)
    if (d->name() == name) total += d->eval_ns();
  return total;
}

std::uint64_t PoolMaker::evals(std::string_view name) const {
  std::uint64_t total = 0;
  for (const auto* d : made_)
    if (d->name() == name) total += d->evals();
  return total;
}

double PoolMaker::max_share(std::string_view name) const {
  std::uint64_t most = 0;
  for (const auto* d : made_)
    if (d->name() == name) most = std::max(most, d->evals());
  const std::uint64_t total = evals(name);
  return total == 0 ? 0.0
                    : static_cast<double>(most) / static_cast<double>(total);
}

std::uint64_t PoolMaker::state_bytes(std::string_view name) const {
  std::uint64_t total = 0;
  for (const auto* d : made_) {
    if (d->name() != name) continue;
    util::StateWriter w;
    if (d->save_state(w)) total += w.buffer().size();
  }
  return total;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

Outcome account(const std::vector<PassResult>& passes,
                const std::string& gate_error) {
  Outcome out;
  bool checks_passed = gate_error.empty();
  for (const auto& pass : passes) {
    out.attempted += pass.attempted;
    out.failed += pass.failed;
    checks_passed &= pass.error.empty();
  }
  if (!checks_passed) out.failed = out.attempted;
  out.correct = checks_passed && out.failed == 0 && out.attempted > 0;
  return out;
}

void check_against(PassResult& pass, const std::string& reference) {
  if (pass.error.empty() && pass.results_json != reference)
    pass.error = "results differ from the reference execution";
}

PassResult run_engine_pass(const EngineWorkload& w, std::uint64_t seed,
                           Trace& trace) {
  PassResult out;
  const std::size_t from = trace.spans().size();
  const std::int64_t setup0 = now_ns();
  const auto engine = make_engine(w.catalog, w.scale, seed, w.lazy_actors);
  const std::int64_t ctor_end = now_ns();
  PoolMaker pools(trace.enabled());
  const Pool pool = pools.make();
  core::AlertJoiner joiner(pool);
  pipeline::BatchPool batches;
  std::uint64_t batch_count = 0;

  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  out.setup_s = seconds_between(setup0, t0);
  {
    Trace::Scope run(trace, "workload.run_batched");
    (void)engine->run_batched(
        [&](pipeline::RecordBatch&& batch) {
          Trace::Scope sink(trace, "workload.sink");
          ++batch_count;
          {
            Trace::Scope join(trace, "core.joiner.process");
            for (const auto& record : batch) (void)joiner.process(record);
          }
          batches.recycle(std::move(batch));
        },
        kBatchRecords, &batches);
  }
  const std::int64_t t1 = now_ns();
  out.cpu_s = cpu_seconds() - cpu0;
  out.timed_s = seconds_between(t0, t1);

  out.attempted = engine->emitted();
  out.completed = joiner.results().total_requests();
  out.failed = abs_diff(out.attempted, out.completed);
  out.results_json = core::to_json(joiner.results());
  if (!trace.enabled()) return out;

  const std::uint64_t n = out.completed;
  const std::int64_t run_ns = trace.total_ns("workload.run_batched", from);
  const std::int64_t sink_ns = trace.total_ns("workload.sink", from);
  const std::int64_t joiner_ns = trace.total_ns("core.joiner.process", from);
  const std::int64_t eval_ns = pools.eval_ns("sentinel") +
                               pools.eval_ns("arcane");
  auto& l = out.layers;
  l["workload.ctor_ms"] = static_cast<double>(ctor_end - setup0) / 1e6;
  l["workload.emit_ns_per_rec"] = per_record(run_ns - sink_ns, n);
  l["workload.sink_ns_per_rec"] = per_record(sink_ns, n);
  l["workload.batch_fill"] =
      batch_count == 0 ? 0.0
                       : static_cast<double>(n) /
                             static_cast<double>(batch_count * kBatchRecords);
  l["workload.actors_created"] =
      static_cast<double>(engine->actors_created());
  l["workload.peak_live_actors"] =
      static_cast<double>(engine->peak_live_actors());
  l["detectors.sentinel.eval_ns_per_rec"] =
      per_record(pools.eval_ns("sentinel"), pools.evals("sentinel"));
  l["detectors.arcane.eval_ns_per_rec"] =
      per_record(pools.eval_ns("arcane"), pools.evals("arcane"));
  l["detectors.sentinel.state_bytes"] =
      static_cast<double>(pools.state_bytes("sentinel"));
  l["detectors.arcane.state_bytes"] =
      static_cast<double>(pools.state_bytes("arcane"));
  l["core.joiner.self_ns_per_rec"] = per_record(joiner_ns - eval_ns, n);
  return out;
}

std::string engine_gate(const EngineWorkload& w, std::uint64_t seed,
                        std::optional<std::uint64_t> flip_at) {
  PoolMaker sequential(false, flip_at);
  std::string sequential_json;
  {
    const auto engine =
        make_engine(w.catalog, w.gate_scale, seed, w.lazy_actors);
    const Pool pool = sequential.make();
    core::AlertJoiner joiner(pool);
    pipeline::BatchPool batches;
    (void)engine->run_batched(
        [&](pipeline::RecordBatch&& batch) {
          for (const auto& record : batch) (void)joiner.process(record);
          batches.recycle(std::move(batch));
        },
        kBatchRecords, &batches);
    if (joiner.results().total_requests() != engine->emitted())
      return "gate: joiner saw a different record count than emitted()";
    sequential_json = core::to_json(joiner.results());
  }
  const auto engine =
      make_engine(w.catalog, w.gate_scale, seed, w.lazy_actors);
  PoolMaker plain(false);
  pipeline::ShardedPipeline sharded([&plain] { return plain.make(); },
                                    kShards);
  (void)engine->run_batched(
      [&](pipeline::RecordBatch&& batch) {
        sharded.process_batch(std::move(batch));
      },
      kBatchRecords, &sharded.batch_pool());
  const auto results = sharded.finish();
  if (results.total_requests() != engine->emitted())
    return "gate: sharded pipeline saw a different record count";
  if (core::to_json(results) != sequential_json)
    return "gate: sequential results differ from the sharded pipeline's";
  return {};
}

namespace {

/// The tail workload's input: the generated stream written as one CLF
/// source log per /24 group, next to the (still empty) live logs that a
/// tail execution appends the sources to.
struct TailFiles {
  std::array<std::string, kTailFiles> source_paths;
  std::array<std::uint64_t, kTailFiles> source_bytes{};
  std::vector<std::string> live_paths;
  FdSet sources;  ///< read-only
  FdSet live;     ///< append-only
  std::uint64_t records = 0;
  double ctor_ms = 0.0;
  std::uint64_t actors_created = 0;
  std::uint64_t peak_live_actors = 0;
};

/// Generates the input under `dir` and opens every file; nullptr (with
/// `error` set) on an I/O failure.
std::unique_ptr<TailFiles> write_tail_files(const TailWorkload& w,
                                            std::uint64_t seed,
                                            const std::string& dir,
                                            std::string& error) {
  auto files = std::make_unique<TailFiles>();
  const auto open_fresh = [&](const std::string& path, int flags) {
    ::unlink(path.c_str());
    const int fd = ::open(path.c_str(), flags | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) error = "cannot create " + path;
    return fd;
  };
  FdSet writers;
  for (std::size_t i = 0; i < kTailFiles; ++i) {
    files->source_paths[i] = dir + "/source." + std::to_string(i) + ".log";
    writers.fds[i] = open_fresh(files->source_paths[i], O_WRONLY);
    files->live_paths.push_back(dir + "/live." + std::to_string(i) + ".log");
    files->live.fds[i] = open_fresh(files->live_paths[i], O_WRONLY | O_APPEND);
  }
  if (!error.empty()) return nullptr;

  const std::int64_t t0 = now_ns();
  const auto engine = make_engine(w.catalog, w.scale, seed, false);
  files->ctor_ms = static_cast<double>(now_ns() - t0) / 1e6;
  pipeline::BatchPool batches;
  httplog::ClfFormatter formatter;
  std::array<std::string, kTailFiles> pending;
  const auto write_pending = [&](std::size_t i) {
    if (!write_all(writers.fds[i], pending[i].data(), pending[i].size()))
      error = "cannot write " + files->source_paths[i];
    files->source_bytes[i] += pending[i].size();
    pending[i].clear();
  };
  files->records = engine->run_batched(
      [&](pipeline::RecordBatch&& batch) {
        for (const auto& record : batch) {
          const std::size_t i = tail_file_of(record);
          formatter.append(record, pending[i]);
          pending[i].push_back('\n');
          if (pending[i].size() >= (1u << 20)) write_pending(i);
        }
        batches.recycle(std::move(batch));
      },
      kBatchRecords, &batches);
  for (std::size_t i = 0; i < kTailFiles; ++i) {
    write_pending(i);
    files->sources.fds[i] = ::open(files->source_paths[i].c_str(), O_RDONLY);
    if (files->sources.fds[i] < 0)
      error = "cannot open " + files->source_paths[i];
  }
  files->actors_created = engine->actors_created();
  files->peak_live_actors = engine->peak_live_actors();
  return error.empty() ? std::move(files) : nullptr;
}

/// The closed loop every tail execution of an input shares: append the
/// next chunk_bytes of each source to its live log (cutting lines
/// anywhere), poll, and persist every kFlushEvery parsed records and once
/// at the end. The tailer's emission order depends only on this schedule,
/// so two executions of it see the same record stream.
template <typename Persist>
void drive_tail(const TailWorkload& w, TailFiles& files,
                pipeline::MultiTailer& tailer, Trace& trace,
                std::size_t& peak_buffered, std::string& error,
                const Persist& persist) {
  std::vector<char> chunk(w.chunk_bytes);
  std::array<std::uint64_t, kTailFiles> offsets{};
  std::uint64_t last_persist = 0;
  for (bool more = true; more;) {
    more = false;
    {
      Trace::Scope append(trace, "loadgen.append");
      for (std::size_t i = 0; i < kTailFiles; ++i) {
        const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(
            chunk.size(), files.source_bytes[i] - offsets[i]));
        if (want == 0) continue;
        const ssize_t got =
            ::pread(files.sources.fds[i], chunk.data(), want,
                    static_cast<off_t>(offsets[i]));
        if (got != static_cast<ssize_t>(want) ||
            !write_all(files.live.fds[i], chunk.data(), want))
          error = "cannot append to " + files.live_paths[i];
        offsets[i] += want;
        more |= offsets[i] < files.source_bytes[i];
      }
    }
    {
      Trace::Scope poll(trace, "pipeline.ingest.poll");
      (void)tailer.poll();
    }
    peak_buffered = std::max(peak_buffered, tailer.buffered_records());
    if (tailer.stats().parsed - last_persist >= kFlushEvery) {
      last_persist = tailer.stats().parsed;
      persist();
    }
  }
  persist();  // the final persist of a tail run
}

/// Records lost, duplicated, skipped or unread by a tail execution.
std::uint64_t tail_failures(const TailFiles& files,
                            const pipeline::MultiTailer& tailer,
                            std::uint64_t joined) {
  const auto stats = tailer.stats();
  return abs_diff(files.records, stats.parsed) + stats.skipped +
         tailer.read_errors() + abs_diff(stats.parsed, joined);
}

}  // namespace

TailReference tail_reference(const TailWorkload& w, std::uint64_t seed,
                             const std::string& dir) {
  TailReference out;
  const auto files = write_tail_files(w, seed, dir, out.error);
  if (!files) return out;

  // The single-thread COST baseline: one-shot replay of the concatenated
  // source logs.
  std::string replay_json;
  {
    const Pool pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    std::uint64_t parsed = 0, skipped = 0;
    const std::int64_t t0 = now_ns();
    for (const auto& path : files->source_paths) {
      std::ifstream in(path, std::ios::binary);
      const auto stats = engine.replay(in);
      parsed += stats.parsed;
      skipped += stats.skipped;
    }
    out.replay_ns_per_rec = per_record(now_ns() - t0, parsed);
    if (parsed != files->records || skipped != 0) {
      out.error = "the one-shot replay lost records";
      return out;
    }
    replay_json = core::to_json(engine.results());
  }

  // The gate's reference: the same live schedule into a sequential engine.
  const Pool pool = detectors::make_paper_pair();
  pipeline::ReplayEngine engine(pool);
  pipeline::BatchPool batches;
  pipeline::MultiTailer tailer(
      files->live_paths,
      pipeline::MultiTailer::BatchSink([&](pipeline::RecordBatch&& batch) {
        engine.process_batch(batch);
        batches.recycle(std::move(batch));
      }),
      kBatchRecords, pipeline::MultiTailConfig(), &batches);
  Trace off;
  std::size_t peak_buffered = 0;
  drive_tail(w, *files, tailer, off, peak_buffered, out.error,
             [&] { (void)tailer.flush(); });
  if (tail_failures(*files, tailer, engine.results().total_requests()) != 0)
    out.error = "the sequential live execution lost records";
  out.results_json = core::to_json(engine.results());
  out.matches_one_shot_replay = out.results_json == replay_json;
  return out;
}

PassResult run_tail_pass(const TailWorkload& w, std::uint64_t seed,
                         Trace& trace, const std::string& dir,
                         std::optional<std::uint64_t> flip_at) {
  PassResult out;
  PoolMaker pools(trace.enabled(), flip_at);
  const std::size_t from = trace.spans().size();
  const std::int64_t setup0 = now_ns();
  const auto files = write_tail_files(w, seed, dir, out.error);
  if (!files) return out;
  const std::vector<std::string>& paths = files->live_paths;
  const std::string session_path = dir + "/tail_session.state.json";

  pipeline::ShardedPipeline sharded([&pools] { return pools.make(); },
                                    kShards);
  util::StringInterner ua_tokens;  // the dispatch-side stamp, as the CLI
  pipeline::MultiTailer* tailer_ref = nullptr;
  std::size_t peak_buffered = 0;
  pipeline::MultiTailer tailer(
      paths,
      pipeline::MultiTailer::BatchSink([&](pipeline::RecordBatch&& batch) {
        Trace::Scope sink(trace, "pipeline.ingest.sink");
        peak_buffered =
            std::max(peak_buffered, tailer_ref->buffered_records());
        for (auto& record : batch)
          record.ua_token = ua_tokens.intern(record.user_agent);
        Trace::Scope handoff(trace, "pipeline.sharded.process_batch");
        sharded.process_batch(std::move(batch));
      }),
      kBatchRecords, pipeline::MultiTailConfig(), &sharded.batch_pool());
  tailer_ref = &tailer;

  std::uint64_t commits = 0;
  std::uint64_t checkpoint_state_bytes = 0;
  // Persist exactly as `divscrape tail --checkpoint-dir` does: quiesce
  // (flush the merge heap, drain the shards), then the per-log
  // checkpoints, then the session file carrying the state blob.
  const auto persist = [&] {
    Trace::Scope scope(trace, "pipeline.checkpoint.persist");
    {
      Trace::Scope quiesce(trace, "pipeline.checkpoint.quiesce");
      (void)tailer.flush();
      sharded.drain();
    }
    util::StateWriter w;
    bool have_state = false;
    {
      Trace::Scope serialize(trace, "pipeline.checkpoint.serialize");
      w.u8(1);  // the CLI's sharded-mode tag
      ua_tokens.save_state(w);
      have_state = sharded.save_state(w);
    }
    Trace::Scope write(trace, "pipeline.checkpoint.write");
    pipeline::TailSessionState session;
    for (std::size_t i = 0; i < tailer.files(); ++i) {
      const auto cp = tailer.checkpoint(i);
      if (!cp.save(paths[i] + ".cp.json"))
        out.error = "cannot save checkpoint for " + paths[i];
      session.logs.emplace_back(paths[i], cp);
    }
    if (!have_state) {
      out.error = "sharded pipeline did not serialize its state";
      return;
    }
    session.state = w.take();
    checkpoint_state_bytes = session.state.size();
    if (!session.save(session_path))
      out.error = "cannot save " + session_path;
    ++commits;
  };

  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  out.setup_s = seconds_between(setup0, t0);
  drive_tail(w, *files, tailer, trace, peak_buffered, out.error, persist);
  std::optional<core::JointResults> results;
  {
    Trace::Scope finish(trace, "pipeline.sharded.finish");
    results = sharded.finish();
  }
  const std::int64_t t1 = now_ns();
  out.cpu_s = cpu_seconds() - cpu0;
  out.timed_s = seconds_between(t0, t1);

  const auto stats = tailer.stats();
  out.attempted = files->records;
  out.completed = results->total_requests();
  out.failed = tail_failures(*files, tailer, out.completed);
  out.results_json = core::to_json(*results);
  if (!trace.enabled()) return out;

  const std::uint64_t n = out.completed;
  const std::int64_t timed_ns = t1 - t0;
  const std::int64_t eval_ns = pools.eval_ns("sentinel") +
                               pools.eval_ns("arcane");
  const std::int64_t sink_ns = trace.total_ns("pipeline.ingest.sink", from);
  auto& l = out.layers;
  l["workload.ctor_ms"] = files->ctor_ms;
  l["workload.actors_created"] = static_cast<double>(files->actors_created);
  l["workload.peak_live_actors"] =
      static_cast<double>(files->peak_live_actors);
  l["detectors.sentinel.eval_ns_per_rec"] =
      per_record(pools.eval_ns("sentinel"), pools.evals("sentinel"));
  l["detectors.arcane.eval_ns_per_rec"] =
      per_record(pools.eval_ns("arcane"), pools.evals("arcane"));
  l["detectors.sentinel.state_bytes"] =
      static_cast<double>(pools.state_bytes("sentinel"));
  l["detectors.arcane.state_bytes"] =
      static_cast<double>(pools.state_bytes("arcane"));
  l["pipeline.ingest.poll_ns_per_rec"] = per_record(
      trace.total_ns("pipeline.ingest.poll", from) -
          trace.child_ns("pipeline.ingest.sink", "pipeline.ingest.poll", from),
      n);
  l["pipeline.ingest.sink_ns_per_rec"] = per_record(sink_ns, n);
  l["pipeline.sharded.process_batch_ns_per_rec"] = per_record(
      trace.total_ns("pipeline.sharded.process_batch", from), n);
  l["pipeline.sharded.worker_busy_share"] =
      static_cast<double>(eval_ns) /
      (static_cast<double>(kShards) * static_cast<double>(timed_ns));
  l["pipeline.sharded.max_shard_share"] = pools.max_share("sentinel");
  l["pipeline.sharded.peak_backlog_records"] =
      static_cast<double>(sharded.peak_shard_backlog());
  l["pipeline.sharded.finish_ms"] =
      static_cast<double>(trace.total_ns("pipeline.sharded.finish", from)) /
      1e6;
  l["pipeline.ingest.forced_emits"] =
      static_cast<double>(tailer.forced_emits());
  l["pipeline.ingest.late_records"] =
      static_cast<double>(tailer.late_records());
  l["pipeline.ingest.peak_buffered_records"] =
      static_cast<double>(peak_buffered);
  l["pipeline.ingest.skipped"] = static_cast<double>(stats.skipped);
  l["pipeline.ingest.read_errors"] =
      static_cast<double>(tailer.read_errors());
  l["pipeline.checkpoint.commits"] = static_cast<double>(commits);
  l["pipeline.checkpoint.quiesce_ms_p50"] =
      median(trace.durations_ms("pipeline.checkpoint.quiesce", from));
  l["pipeline.checkpoint.serialize_ms_p50"] =
      median(trace.durations_ms("pipeline.checkpoint.serialize", from));
  l["pipeline.checkpoint.write_ms_p50"] =
      median(trace.durations_ms("pipeline.checkpoint.write", from));
  l["pipeline.checkpoint.state_bytes"] =
      static_cast<double>(checkpoint_state_bytes);
  l["loadgen.append_ns_per_rec"] =
      per_record(trace.total_ns("loadgen.append", from), n);
  return out;
}

}  // namespace perfbench
