#include "campaign/minimize.hpp"

#include <utility>
#include <vector>

namespace lcdc::campaign {

namespace {

/// Probe oracle: re-executes a candidate and accepts it only when the
/// failure signature is preserved exactly.  Owns the probe budget.
struct Probe {
  const MinimizeOptions& opts;
  const std::string& signature;
  std::uint64_t attempts = 0;

  [[nodiscard]] bool exhausted() const { return attempts >= opts.maxAttempts; }

  bool stillFails(const CaseSpec& candidate) {
    ++attempts;
    return runCase(candidate, opts.maxEventsPerRun).signature == signature;
  }
};

/// Flattened addresses of every program step, processor-major.
using FlatIndex = std::vector<std::pair<NodeId, std::size_t>>;

FlatIndex flatten(const CaseSpec& spec) {
  FlatIndex flat;
  flat.reserve(totalSteps(spec));
  for (std::size_t p = 0; p < spec.programs.size(); ++p) {
    for (std::size_t i = 0; i < spec.programs[p].steps.size(); ++i) {
      flat.emplace_back(static_cast<NodeId>(p), i);
    }
  }
  return flat;
}

/// Candidate with flattened positions [lo, hi) removed.
CaseSpec removeRange(const CaseSpec& base, const FlatIndex& flat,
                     std::size_t lo, std::size_t hi) {
  std::vector<std::vector<char>> drop(base.programs.size());
  for (std::size_t p = 0; p < base.programs.size(); ++p) {
    drop[p].assign(base.programs[p].steps.size(), 0);
  }
  for (std::size_t k = lo; k < hi; ++k) drop[flat[k].first][flat[k].second] = 1;

  CaseSpec cand;
  cand.sys = base.sys;
  cand.description = base.description;
  cand.programs.resize(base.programs.size());
  for (std::size_t p = 0; p < base.programs.size(); ++p) {
    auto& steps = cand.programs[p].steps;
    steps.reserve(base.programs[p].steps.size());
    for (std::size_t i = 0; i < base.programs[p].steps.size(); ++i) {
      if (!drop[p][i]) steps.push_back(base.programs[p].steps[i]);
    }
  }
  return cand;
}

/// Phase 1: ddmin's complement-removal loop over the operation list.
void ddminSteps(CaseSpec& current, Probe& probe) {
  FlatIndex flat = flatten(current);
  std::size_t chunks = 2;
  while (flat.size() >= 2 && !probe.exhausted()) {
    const std::size_t chunkSize = (flat.size() + chunks - 1) / chunks;
    bool reduced = false;
    for (std::size_t c = 0; c < chunks && !probe.exhausted(); ++c) {
      const std::size_t lo = c * chunkSize;
      const std::size_t hi = std::min(flat.size(), lo + chunkSize);
      if (lo >= hi) continue;
      CaseSpec candidate = removeRange(current, flat, lo, hi);
      if (probe.stillFails(candidate)) {
        current = std::move(candidate);
        flat = flatten(current);
        chunks = std::max<std::size_t>(chunks - 1, 2);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunkSize <= 1) break;  // finest granularity, nothing removable
      chunks = std::min(flat.size(), chunks * 2);
    }
  }
}

/// Phase 2: drop whole processors (surviving ids compact downwards — the
/// workload's store values stay globally unique because they are baked
/// into the steps).
void dropProcessors(CaseSpec& current, Probe& probe) {
  for (NodeId p = current.sys.numProcessors; p-- > 0;) {
    if (probe.exhausted() || current.sys.numProcessors <= 1) return;
    if (p >= current.sys.numProcessors) continue;
    CaseSpec candidate = current;
    candidate.programs.erase(candidate.programs.begin() +
                             static_cast<std::ptrdiff_t>(p));
    --candidate.sys.numProcessors;
    if (probe.stillFails(candidate)) current = std::move(candidate);
  }
}

/// Phase 3: shrink the retry pacing.
void tightenParameters(CaseSpec& current, Probe& probe) {
  while (current.sys.retryDelay > 1 && !probe.exhausted()) {
    CaseSpec candidate = current;
    candidate.sys.retryDelay /= 2;
    if (!probe.stillFails(candidate)) break;
    current = std::move(candidate);
  }
}

}  // namespace

std::size_t totalSteps(const CaseSpec& spec) {
  std::size_t n = 0;
  for (const auto& prog : spec.programs) n += prog.steps.size();
  return n;
}

MinimizeResult shrink(const CaseSpec& failing, const std::string& signature,
                      const MinimizeOptions& opts) {
  MinimizeResult result;
  result.signature = signature;
  result.stepsBefore = totalSteps(failing);
  result.procsBefore = failing.sys.numProcessors;

  Probe probe{opts, signature};
  if (!probe.stillFails(failing)) {
    // Caller's signature doesn't reproduce (stale spec?) — refuse to
    // shrink toward a different bug.
    result.spec = failing;
    result.stepsAfter = result.stepsBefore;
    result.procsAfter = result.procsBefore;
    result.attempts = probe.attempts;
    return result;
  }

  CaseSpec current = failing;
  ddminSteps(current, probe);
  dropProcessors(current, probe);
  // A smaller machine usually strands more operations; one more pass.
  ddminSteps(current, probe);
  tightenParameters(current, probe);

  current.description = failing.description + " [minimized]";
  result.attempts = probe.attempts;
  result.stepsAfter = totalSteps(current);
  result.procsAfter = current.sys.numProcessors;
  result.spec = std::move(current);
  return result;
}

}  // namespace lcdc::campaign
