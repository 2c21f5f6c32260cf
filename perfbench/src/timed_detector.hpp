// Forwarding Detector decorators used by the benchmark.
//
// TimedDetector forwards name, evaluate, reset, save_state and load_state
// to the wrapped detector (ForwardingDetector) and sums the wall time spent
// in evaluate(). It never touches a verdict or the state blob, so a pool of
// TimedDetectors yields byte-identical JointResults and checkpoints (the
// self-test checks this in the sequential and the sharded pool). Each
// instance is used by one thread; read its counters after that thread has
// been joined.
//
// FlipVerdictDetector is the self-test's deliberately broken pool member:
// it inverts the alert bit of exactly one verdict.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "detectors/detector.hpp"
#include "trace.hpp"

namespace perfbench {

/// Forwards every Detector call to the wrapped detector.
class ForwardingDetector : public divscrape::detectors::Detector {
 public:
  explicit ForwardingDetector(std::unique_ptr<Detector> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] divscrape::detectors::Verdict evaluate(
      const divscrape::httplog::LogRecord& record) override {
    return inner_->evaluate(record);
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] bool save_state(
      divscrape::util::StateWriter& w) const override {
    return inner_->save_state(w);
  }
  [[nodiscard]] bool load_state(divscrape::util::StateReader& r) override {
    return inner_->load_state(r);
  }

 private:
  std::unique_ptr<Detector> inner_;
};

class TimedDetector final : public ForwardingDetector {
 public:
  using ForwardingDetector::ForwardingDetector;

  [[nodiscard]] divscrape::detectors::Verdict evaluate(
      const divscrape::httplog::LogRecord& record) override {
    const std::int64_t t0 = now_ns();
    const auto verdict = ForwardingDetector::evaluate(record);
    eval_ns_ += now_ns() - t0;
    ++evals_;
    return verdict;
  }

  [[nodiscard]] std::int64_t eval_ns() const noexcept { return eval_ns_; }
  [[nodiscard]] std::uint64_t evals() const noexcept { return evals_; }

 private:
  std::int64_t eval_ns_ = 0;
  std::uint64_t evals_ = 0;
};

class FlipVerdictDetector final : public ForwardingDetector {
 public:
  /// Inverts the alert bit of the `flip_at`-th evaluate() call (0-based).
  FlipVerdictDetector(std::unique_ptr<Detector> inner, std::uint64_t flip_at)
      : ForwardingDetector(std::move(inner)), flip_at_(flip_at) {}

  [[nodiscard]] divscrape::detectors::Verdict evaluate(
      const divscrape::httplog::LogRecord& record) override {
    auto verdict = ForwardingDetector::evaluate(record);
    if (calls_++ == flip_at_) verdict.alert = !verdict.alert;
    return verdict;
  }

 private:
  std::uint64_t flip_at_;
  std::uint64_t calls_ = 0;
};

using Pool = std::vector<std::unique_ptr<divscrape::detectors::Detector>>;

}  // namespace perfbench
