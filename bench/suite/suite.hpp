// Shared plumbing of the benchmark suite (README.md): options, the result
// record every workload fills, the time-budgeted rep loop, host probes,
// allocation counting and the in-memory tracer.
//
// Each workload runs in its own process (report.py spawns one per
// workload), so peak RSS, the thread pool and every thread_local engine
// belong to that workload alone.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "proto/observer.hpp"
#include "verify/stream.hpp"

namespace lcdc::bench_suite {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}
[[nodiscard]] inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
/// User + system CPU seconds of the whole process (every thread).
[[nodiscard]] double cpuSeconds();
[[nodiscard]] double peakRssMb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured seconds per phase budget (README: the rep loop).
  double seconds = 10;
  /// ~1/50-size inputs; the only mode allowed in unoptimized or
  /// sanitizer builds.
  bool smoke = false;
  /// Where the traced phase writes its spans; empty = no traced phase.
  std::string traceFile;

  /// Run the traced phase after the untraced one.
  [[nodiscard]] bool traced() const { return !traceFile.empty(); }
  /// A traced run splits its budget between the untraced and the traced
  /// phase.
  [[nodiscard]] double phaseSeconds() const {
    return traced() ? seconds / 2 : seconds;
  }
};

/// One measured repetition: units of work completed, the wall seconds
/// they took, and the process's peak RSS once it finished.
struct Rep {
  double units = 0;
  double wallS = 0;
  double peakRssMb = 0;
};

/// Time `body`, which returns the units of work it completed.
template <class F>
Rep timedRep(F&& body) {
  const Clock::time_point t0 = Clock::now();
  Rep r;
  r.units = body();
  r.wallS = secondsSince(t0);
  r.peakRssMb = peakRssMb();
  return r;
}

/// Call `rep` until `seconds` are spent: at least `minReps` times, and
/// never starting a rep that, going by the previous one, would overrun.
template <class F>
void repeatFor(double seconds, int minReps, F&& rep) {
  const Clock::time_point t0 = Clock::now();
  double last = 0;
  for (int n = 0; n < minReps || secondsSince(t0) + last <= seconds; ++n) {
    const Clock::time_point r0 = Clock::now();
    rep();
    last = secondsSince(r0);
  }
}

/// Everything a workload run reports.  End-to-end samples come from the
/// untraced phase only; `layers` is filled only in traced runs.
struct Result {
  std::string unit;  ///< what work_per_s counts: events, cases, states, ops
  std::vector<double> setupS;
  std::vector<Rep> reps;        ///< untraced measured reps
  std::vector<Rep> tracedReps;  ///< same reps with tracing on
  /// Units of work attempted (reps, cases, explorations, chunks) and how
  /// many of them failed a correctness gate.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Gates that failed: (gate, detail).
  std::vector<std::pair<std::string, std::string>> failedGates;
  std::map<std::string, double> layers;
  /// Reported next to the metrics but not compared (chunk RTT, counts).
  std::map<std::string, double> extra;

  /// Record a gate; returns `ok`.
  bool gate(bool ok, const std::string& name, const std::string& detail);
  [[nodiscard]] bool correct() const {
    return failed == 0 && failedGates.empty();
  }
};

[[nodiscard]] double median(std::vector<double> xs);
/// Linear-interpolated percentile, p in [0, 1].
[[nodiscard]] double percentile(std::vector<double> xs, double p);
[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

// -- heap-allocation counting (alloc_count.cpp) -------------------------------

/// Global operator new is replaced in this binary; it counts only between
/// startAllocCounting() and the matching allocCount() read, so untraced
/// phases pay one relaxed load per allocation.
void startAllocCounting();
/// Allocations since startAllocCounting(); stops counting.
[[nodiscard]] std::uint64_t stopAllocCounting();

// -- tracing ------------------------------------------------------------------

/// In-memory trace of one workload process: coarse spans (workload, rep,
/// case, exploration, session, chunk) and per-callback aggregates (count,
/// total ns, log2 histogram).  Written out once, at exit.
class Tracer {
 public:
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::array<std::uint64_t, 40> log2Hist{};
    void add(std::uint64_t ns);
  };

  /// Record a finished span; returns its id (ids start at 1, 0 = root).
  std::uint64_t span(const char* name, std::uint64_t parent,
                     std::uint64_t startNs, std::uint64_t endNs);
  /// Open a span now; close it with end().
  std::uint64_t begin(const char* name, std::uint64_t parent);
  void end(std::uint64_t id);
  /// Aggregate slot for `name`; the reference stays valid.
  Agg& agg(const std::string& name) { return aggs_[name]; }
  [[nodiscard]] const Agg* findAgg(const std::string& name) const;
  /// Zero every aggregate (after a warm-up rep), keeping the slots.
  void resetAggs();

  /// JSON lines: one per span, one per aggregate.
  void write(std::ostream& os, const std::string& workload) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t startNs;
    std::uint64_t endNs;
  };
  std::vector<Span> spans_;
  std::map<std::string, Agg> aggs_;
};

/// The six StreamCheckerSet cores attached individually, each call timed
/// into a Tracer aggregate named after the core.  Routes each callback to
/// the cores StreamCheckerSet routes it to, so every core receives exactly
/// the events it receives inside the set.
class TimedCheckers final : public proto::ObserverAdapter {
 public:
  /// Core names, in the set's canonical report order.
  static constexpr std::array<const char*, 6> kCores = {
      "program_order", "claim2", "claim3", "epochs", "sc", "value_chain"};

  TimedCheckers(const verify::VerifyConfig& cfg, Tracer& tracer);

  void reset(const verify::VerifyConfig& cfg);
  void finish();
  [[nodiscard]] verify::CheckReport report() const;
  [[nodiscard]] std::size_t memoryFootprint() const;
  /// Nanoseconds spent inside the cores so far.
  [[nodiscard]] std::uint64_t coreNs() const;

  void onSerialize(const proto::TxnInfo& txn) override;
  void onTxnConverted(TransactionId id, TxnKind newKind) override;
  void onStamp(NodeId node, TransactionId txn, SerialIdx serial, BlockId block,
               proto::StampRole role, GlobalTime ts, AState oldA,
               AState newA) override;
  void onValueReceived(NodeId node, TransactionId txn, BlockId block,
                       const BlockValue& value) override;
  void onOperation(const proto::OpRecord& op) override;

 private:
  template <class F>
  void timed(std::size_t core, F&& call) {
    const std::uint64_t t0 = nowNs();
    call();
    aggs_[core]->add(nowNs() - t0);
  }

  verify::StreamProgramOrder programOrder_;
  verify::StreamClaim2 claim2_;
  verify::StreamClaim3 claim3_;
  verify::StreamEpochs epochs_;
  verify::StreamSequentialConsistency sc_;
  verify::StreamValueChain valueChain_;
  std::array<Tracer::Agg*, 6> aggs_{};
};

/// Fill the verify.* layer metrics from a TimedCheckers' aggregates;
/// `wallNs` is the traced wall the cores' time is a share of.
void verifyLayers(const Tracer& tracer, std::uint64_t wallNs, Result& res);

// -- workloads ----------------------------------------------------------------

Result runSimHot(const Options& opt, Tracer* tracer);
Result runCampaignMixed(const Options& opt, Tracer* tracer);
Result runMc3x2(const Options& opt, Tracer* tracer);
Result runMc4x1Sym(const Options& opt, Tracer* tracer);
Result runServeTcp(const Options& opt, Tracer* tracer);
Result runServeMem(const Options& opt, Tracer* tracer);

}  // namespace lcdc::bench_suite
