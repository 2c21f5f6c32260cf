// Call-granularity span recorder for the benchmark's traced mode.
//
// Spans are opened and closed on the caller's thread only, around calls
// into the program's public functions (run_batched, each sink call, poll,
// process_batch, each persist step, finish). Each span keeps its name,
// start, end and parent; all of them stay in memory and are written out
// once, when the run ends. A disabled Trace records nothing, so untraced
// passes pay one predicted branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Trace {
 public:
  struct Span {
    const char* name;  ///< static string
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into spans(), -1 for a root span
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Trace& trace, const char* name) : trace_(trace) {
      if (trace_.enabled_) index_ = trace_.open(name);
    }
    ~Scope() {
      if (index_ >= 0) trace_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    std::int32_t index_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Sum of the durations of spans named `name` among spans [from, end).
  [[nodiscard]] std::int64_t total_ns(const char* name,
                                      std::size_t from) const {
    std::int64_t total = 0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (std::string_view(spans_[i].name) == name)
        total += spans_[i].end_ns - spans_[i].start_ns;
    }
    return total;
  }
  /// Like total_ns, restricted to spans whose parent is named `parent`.
  [[nodiscard]] std::int64_t child_ns(const char* name, const char* parent,
                                      std::size_t from) const {
    std::int64_t total = 0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent >= 0 && std::string_view(s.name) == name &&
          std::string_view(spans_[static_cast<std::size_t>(s.parent)].name) ==
              parent)
        total += s.end_ns - s.start_ns;
    }
    return total;
  }
  /// Durations of spans named `name` among spans [from, end).
  [[nodiscard]] std::vector<double> durations_ms(const char* name,
                                                 std::size_t from) const {
    std::vector<double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (std::string_view(spans_[i].name) == name)
        out.push_back(static_cast<double>(spans_[i].end_ns -
                                          spans_[i].start_ns) /
                      1e6);
    }
    return out;
  }
  /// Sum of root-span durations among spans [from, end): the part of the
  /// caller's time some span accounts for.
  [[nodiscard]] std::int64_t root_ns(std::size_t from) const {
    std::int64_t total = 0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (spans_[i].parent < 0) total += spans_[i].end_ns - spans_[i].start_ns;
    }
    return total;
  }

  /// Writes every span as one JSON document; false on an I/O error.
  [[nodiscard]] bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d}%s\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::int32_t open(const char* name) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(index);
    return index;
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

}  // namespace perfbench
