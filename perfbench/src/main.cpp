// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload <simulate|megasite|tail> --seed <n> --seconds <s>
//             --trace <0|1> --work-dir <dir> [--commit <id>]
//   perfbench --self-test --work-dir <dir>
//
// A run draws kInputsPerRun scenario seeds from --seed. It first checks
// correctness untimed (each input's gate against a different execution of
// the same input, then one warm-up pass), then repeats timed passes, in
// pairs over one input at a time, until `--seconds` of timed work is done.
// Every pass is checked against its input's reference; a failed check
// fails every record of the run. `--trace 1` traces the second pass of
// each pair: traced passes give the per-layer split, the pairs give the
// tracing overhead.
//
// Standard output ends with two JSON lines: the host/build stamp, then the
// result {"correct", "attempted", "failed", "metrics": {name: value}}.
// run.py attaches units from BENCHMARK.json.
#include <dirent.h>
#include <malloc.h>
#include <sys/statfs.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/rss.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace util = divscrape::util;

/// Why each workload exists is recorded in BENCHMARK.json.
const EngineWorkload kSimulate{"amadeus_like", 1.0, 0.05, false};
const EngineWorkload kMegasite{"megasite", 0.05, 0.005, true};
const TailWorkload kTail{"amadeus_like", 0.3, 64 * 1024};

/// Inputs per run: the passes of a run cycle through this many scenario
/// seeds derived from --seed, so a run's medians do not hang on one
/// population draw.
constexpr std::uint64_t kInputsPerRun = 4;

/// Stop starting passes once this much wall time has gone, so a run ends
/// well inside its 180 s limit on a slow host.
constexpr double kPassDeadlineS = 140.0;

/// Per-layer metrics, reported by every traced run; 0 where the layer is
/// not on the workload's path.
const char* const kPerLayer[] = {
    "workload.ctor_ms",
    "workload.emit_ns_per_rec",
    "workload.sink_ns_per_rec",
    "workload.batch_fill",
    "workload.actors_created",
    "workload.peak_live_actors",
    "detectors.sentinel.eval_ns_per_rec",
    "detectors.arcane.eval_ns_per_rec",
    "detectors.sentinel.state_bytes",
    "detectors.arcane.state_bytes",
    "core.joiner.self_ns_per_rec",
    "pipeline.ingest.poll_ns_per_rec",
    "pipeline.ingest.sink_ns_per_rec",
    "pipeline.sharded.process_batch_ns_per_rec",
    "pipeline.sharded.worker_busy_share",
    "pipeline.sharded.max_shard_share",
    "pipeline.sharded.peak_backlog_records",
    "pipeline.sharded.finish_ms",
    "pipeline.ingest.forced_emits",
    "pipeline.ingest.late_records",
    "pipeline.ingest.peak_buffered_records",
    "pipeline.ingest.skipped",
    "pipeline.ingest.read_errors",
    "pipeline.ingest.replay_divergent_inputs",
    "pipeline.checkpoint.commits",
    "pipeline.checkpoint.quiesce_ms_p50",
    "pipeline.checkpoint.serialize_ms_p50",
    "pipeline.checkpoint.write_ms_p50",
    "pipeline.checkpoint.state_bytes",
    "loadgen.append_ns_per_rec",
    "baseline.replay_ns_per_rec",
    "trace.overhead_share",
    "trace.unattributed_share",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool self_test = false;
  std::string work_dir;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<simulate|megasite|tail> --seed <n> --seconds <s> --trace "
               "<0|1> --work-dir <dir> [--commit <id>]\n       perfbench "
               "--self-test --work-dir <dir>\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || text[0] == '-')
    return false;
  out = v;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, args.seed)) usage("--seed must be an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      // run.py checks the range; this only parses.
      if (!parse_u64(value, n)) usage("--seconds must be an integer");
      args.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_u64(value, n) || n > 1) usage("--trace must be 0 or 1");
      args.trace = n == 1;
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.work_dir.empty()) usage("--work-dir is required");
  if (args.self_test) return args;
  if (args.workload != "simulate" && args.workload != "megasite" &&
      args.workload != "tail")
    usage("--workload must be simulate, megasite or tail");
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace are required");
  return args;
}

/// Empty when this binary may be timed; otherwise why not.
std::string untimeable_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo")
    return "build type \"" + type + "\" is not optimized";
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
  return "sanitizer build";
#endif
  return {};
}

/// The statfs type of `path` in hex, named when it is RAM-backed.
std::string filesystem_of(const std::string& path) {
  struct statfs fs{};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  const auto type = static_cast<unsigned long>(fs.f_type);
  char hex[48];
  std::snprintf(hex, sizeof hex, "0x%lx%s", type,
                type == 0x01021994UL ? " (tmpfs)" : "");
  return hex;
}

std::string loadavg_json() {
  double load[3] = {0.0, 0.0, 0.0};
  if (::getloadavg(load, 3) != 3) return "null";
  char buf[96];
  std::snprintf(buf, sizeof buf, "[%.2f, %.2f, %.2f]", load[0], load[1],
                load[2]);
  return buf;
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS; false
/// where the kernel does not support it.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Peak RSS in KiB since the last reset_peak_rss(), else since the start.
std::int64_t vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return util::peak_rss_kb();
  char line[256];
  long kb = -1;
  while (kb < 0 && std::fgets(line, sizeof line, f) != nullptr)
    (void)std::sscanf(line, "VmHWM: %ld kB", &kb);
  std::fclose(f);
  return kb < 0 ? util::peak_rss_kb() : kb;
}

double rate(const PassResult& p) {
  return p.timed_s > 0.0 ? static_cast<double>(p.completed) / p.timed_s
                         : 0.0;
}

/// Records, timed wall time and CPU time summed over passes.
struct Totals {
  double records = 0.0;
  double timed_s = 0.0;
  double cpu_s = 0.0;

  [[nodiscard]] double rate() const {
    return timed_s > 0.0 ? records / timed_s : 0.0;
  }
  [[nodiscard]] double cpu_ns_per_record() const {
    return records > 0.0 ? cpu_s * 1e9 / records : 0.0;
  }
};

Totals totals(const std::vector<PassResult>& passes) {
  Totals t;
  for (const auto& p : passes) {
    t.records += static_cast<double>(p.completed);
    t.timed_s += p.timed_s;
    t.cpu_s += p.cpu_s;
  }
  return t;
}

/// JSON string literal for text that holds no quote or control byte.
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
      out += '?';
    else
      out += c;
  }
  return out + "\"";
}

/// Removes the files a run left in `dir`, then `dir` itself.
void remove_run_dir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  const Args args = parse_args(argc, argv);
  if (const std::string why = untimeable_build();
      !args.self_test && !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n",
                 why.c_str());
    return 1;
  }
  ::mkdir(args.work_dir.c_str(), 0755);
  const std::string run_dir = args.work_dir + "/" +
                              (args.self_test ? "self-test" : args.workload) +
                              "." + std::to_string(::getpid());
  if (::mkdir(run_dir.c_str(), 0755) != 0) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", run_dir.c_str());
    return 1;
  }
  if (args.self_test) {
    const bool ok = run_self_tests(run_dir);
    remove_run_dir(run_dir);
    return ok ? 0 : 1;
  }

  const std::string load_before = loadavg_json();
  const bool tail = args.workload == "tail";
  const EngineWorkload& engine_w =
      args.workload == "megasite" ? kMegasite : kSimulate;
  Trace trace;

  // Untimed correctness first: each input's gate, then the warm-up pass.
  std::string gate_error;
  std::vector<std::string> references(kInputsPerRun);
  std::vector<double> replay_ns;
  std::uint64_t divergent_inputs = 0;
  const auto input_seed = [&](std::size_t k) {
    return args.seed * kInputsPerRun + k;
  };
  for (std::size_t k = 0; k < kInputsPerRun && gate_error.empty(); ++k) {
    if (tail) {
      const TailReference ref = tail_reference(kTail, input_seed(k), run_dir);
      references[k] = ref.results_json;
      replay_ns.push_back(ref.replay_ns_per_rec);
      divergent_inputs += ref.matches_one_shot_replay ? 0 : 1;
      gate_error = ref.error;
    } else {
      gate_error = engine_gate(engine_w, input_seed(k));
    }
  }
  // In-memory passes have no independent full-scale reference: the first
  // pass over an input (after its gate and conservation check) becomes the
  // reference every later pass over that input must repeat.
  const auto run_pass = [&](std::size_t k) {
    PassResult pass =
        tail ? run_tail_pass(kTail, input_seed(k), trace, run_dir)
             : run_engine_pass(engine_w, input_seed(k), trace);
    if (references[k].empty() && pass.error.empty() && pass.failed == 0)
      references[k] = pass.results_json;
    check_against(pass, references[k]);
    return pass;
  };
  if (const PassResult warm = run_pass(0); gate_error.empty()) {
    if (!warm.error.empty()) gate_error = "warm-up: " + warm.error;
    if (warm.failed != 0) gate_error = "warm-up: failed records";
  }

  std::vector<PassResult> untraced, traced;
  double timed_total = 0.0;
  bool rss_per_pass = true;
  for (std::size_t i = 0;; ++i) {
    const bool need_more =
        timed_total < args.seconds ||
        (args.trace && (traced.empty() || untraced.empty()));
    if (!need_more ||
        static_cast<double>(now_ns() - process_start) / 1e9 > kPassDeadlineS)
      break;
    // Passes go in pairs over one input; a traced run traces the second.
    trace.set_enabled(args.trace && i % 2 == 1);
    const std::size_t from = trace.spans().size();
    // Each pass's peak RSS starts from what the process holds between
    // passes, with the previous pass's freed arenas handed back.
    ::malloc_trim(0);
    rss_per_pass &= reset_peak_rss();
    PassResult pass = run_pass((i / 2) % kInputsPerRun);
    pass.peak_rss_mb = static_cast<double>(vm_hwm_kb()) / 1024.0;
    timed_total += pass.timed_s;
    std::fprintf(stderr,
                 "perfbench: pass %zu input %llu%s: %llu records, %.6f s "
                 "set-up, %.3f s timed, %.0f records/s%s%s\n",
                 i, static_cast<unsigned long long>((i / 2) % kInputsPerRun),
                 trace.enabled() ? " traced" : "",
                 static_cast<unsigned long long>(pass.completed), pass.setup_s,
                 pass.timed_s, rate(pass), pass.error.empty() ? "" : "; ",
                 pass.error.c_str());
    if (trace.enabled()) {
      pass.layers["trace.unattributed_share"] =
          1.0 - static_cast<double>(trace.root_ns(from)) /
                    (pass.timed_s * 1e9);
      traced.push_back(std::move(pass));
    } else {
      untraced.push_back(std::move(pass));
    }
  }
  trace.set_enabled(false);

  std::vector<PassResult> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  const Outcome outcome = account(all, gate_error);
  if (outcome.attempted == 0) {
    std::fprintf(stderr, "perfbench: no record was attempted (%s)\n",
                 gate_error.c_str());
    remove_run_dir(run_dir);
    return 1;
  }

  std::vector<std::pair<std::string, double>> metrics;
  if (!args.trace) {
    // Throughput and CPU are totals over the timed passes, so a run that
    // spans faster and slower phases of a shared host reads their mix.
    const Totals total = totals(untraced);
    std::vector<double> setups, peaks;
    for (const auto& p : untraced) {
      setups.push_back(p.setup_s);
      peaks.push_back(p.peak_rss_mb);
    }
    metrics = {{"throughput_rps", total.rate()},
               {"cpu_ns_per_record", total.cpu_ns_per_record()},
               {"peak_rss_mb", median(peaks)},
               {"setup_s", median(setups)}};
  } else {
    for (const char* name : kPerLayer) {
      std::vector<double> values;
      for (const auto& p : traced) {
        const auto it = p.layers.find(name);
        values.push_back(it == p.layers.end() ? 0.0 : it->second);
      }
      metrics.emplace_back(name, median(values));
    }
    for (auto& [name, value] : metrics) {
      if (name == "baseline.replay_ns_per_rec") value = median(replay_ns);
      if (name == "pipeline.ingest.replay_divergent_inputs")
        value = static_cast<double>(divergent_inputs);
      if (name == "trace.overhead_share") {
        const double base = totals(untraced).rate();
        value = base > 0.0 ? 1.0 - totals(traced).rate() / base : 0.0;
      }
    }
    const std::string trace_path = args.work_dir + "/trace-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".json";
    if (!trace.write_json(trace_path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
  }
  remove_run_dir(run_dir);

  std::printf(
      "{\"stamp\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"passes\": %zu, \"timed_s\": %.3f, \"failed_share\": %.6g, "
      "\"gate\": %s, \"nproc\": %ld, \"loadavg_before\": %s, "
      "\"loadavg_after\": %s, \"work_fs\": %s, \"commit\": %s, "
      "\"build_type\": %s, \"rss_per_pass\": %s}}\n",
      quoted(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      all.size(), timed_total,
      outcome.attempted == 0 ? 1.0
                             : static_cast<double>(outcome.failed) /
                                   static_cast<double>(outcome.attempted),
      quoted(gate_error.empty() ? "passed" : gate_error).c_str(),
      ::sysconf(_SC_NPROCESSORS_ONLN), load_before.c_str(),
      loadavg_json().c_str(), quoted(filesystem_of(args.work_dir)).c_str(),
      quoted(args.commit).c_str(), quoted(PERFBENCH_BUILD_TYPE).c_str(),
      rss_per_pass ? "true" : "false");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second);
  }
  std::printf("}}\n");
  return 0;
}
