#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "suite.hpp"

namespace lcdc::bench_suite {

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool Result::gate(bool ok, const std::string& name,
                  const std::string& detail) {
  const bool seen = std::any_of(
      failedGates.begin(), failedGates.end(),
      [&](const auto& g) { return g.first == name; });
  if (!ok && !seen) failedGates.emplace_back(name, detail);
  return ok;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double idx = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (idx - std::floor(idx));
}

// -- Tracer -------------------------------------------------------------------

void Tracer::Agg::add(std::uint64_t ns) {
  count += 1;
  totalNs += ns;
  const auto bucket = static_cast<std::size_t>(std::bit_width(ns));
  log2Hist[std::min(bucket, log2Hist.size() - 1)] += 1;
}

std::uint64_t Tracer::span(const char* name, std::uint64_t parent,
                           std::uint64_t startNs, std::uint64_t endNs) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{name, id, parent, startNs, endNs});
  return id;
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent) {
  const std::uint64_t now = nowNs();
  return span(name, parent, now, now);
}

void Tracer::end(std::uint64_t id) { spans_[id - 1].endNs = nowNs(); }

const Tracer::Agg* Tracer::findAgg(const std::string& name) const {
  const auto it = aggs_.find(name);
  return it == aggs_.end() ? nullptr : &it->second;
}

void Tracer::resetAggs() {
  for (auto& entry : aggs_) entry.second = Agg{};
}

void Tracer::write(std::ostream& os, const std::string& workload) const {
  for (const Span& s : spans_) {
    os << R"({"type":"span","workload":")" << workload << R"(","name":")"
       << s.name << R"(","id":)" << s.id << R"(,"parent":)" << s.parent
       << R"(,"start_ns":)" << s.startNs << R"(,"end_ns":)" << s.endNs
       << "}\n";
  }
  for (const auto& [name, a] : aggs_) {
    os << R"({"type":"agg","workload":")" << workload << R"(","name":")"
       << name << R"(","count":)" << a.count << R"(,"total_ns":)"
       << a.totalNs << R"(,"log2_hist":[)";
    for (std::size_t i = 0; i < a.log2Hist.size(); ++i) {
      os << (i == 0 ? "" : ",") << a.log2Hist[i];
    }
    os << "]}\n";
  }
}

// -- TimedCheckers ------------------------------------------------------------

TimedCheckers::TimedCheckers(const verify::VerifyConfig& cfg, Tracer& tracer)
    : programOrder_(cfg),
      claim2_(cfg),
      claim3_(cfg),
      epochs_(cfg),
      sc_(cfg),
      valueChain_(cfg) {
  for (std::size_t i = 0; i < kCores.size(); ++i) {
    aggs_[i] = &tracer.agg(std::string("verify.") + kCores[i]);
  }
}

void TimedCheckers::reset(const verify::VerifyConfig& cfg) {
  programOrder_.reset(cfg);
  claim2_.reset(cfg);
  claim3_.reset(cfg);
  epochs_.reset(cfg);
  sc_.reset(cfg);
  valueChain_.reset(cfg);
}

void TimedCheckers::finish() {
  programOrder_.finish();
  claim2_.finish();
  claim3_.finish();
  epochs_.finish();
  sc_.finish();
  valueChain_.finish();
}

verify::CheckReport TimedCheckers::report() const {
  verify::CheckReport r;
  const verify::StreamChecker* cores[] = {&programOrder_, &claim2_, &claim3_,
                                          &epochs_,       &sc_,     &valueChain_};
  for (const verify::StreamChecker* core : cores) {
    const verify::CheckReport& part = core->report();
    r.violations.insert(r.violations.end(), part.violations.begin(),
                        part.violations.end());
    r.epochsBuilt = std::max(r.epochsBuilt, part.epochsBuilt);
  }
  return r;
}

std::size_t TimedCheckers::memoryFootprint() const {
  return programOrder_.memoryFootprint() + claim2_.memoryFootprint() +
         claim3_.memoryFootprint() + epochs_.memoryFootprint() +
         sc_.memoryFootprint() + valueChain_.memoryFootprint();
}

std::uint64_t TimedCheckers::coreNs() const {
  std::uint64_t ns = 0;
  for (const Tracer::Agg* a : aggs_) ns += a->totalNs;
  return ns;
}

void TimedCheckers::onSerialize(const proto::TxnInfo& txn) {
  timed(2, [&] { claim3_.onSerialize(txn); });
  timed(5, [&] { valueChain_.onSerialize(txn); });
}

void TimedCheckers::onTxnConverted(TransactionId id, TxnKind newKind) {
  timed(2, [&] { claim3_.onTxnConverted(id, newKind); });
}

void TimedCheckers::onStamp(NodeId node, TransactionId txn, SerialIdx serial,
                            BlockId block, proto::StampRole role,
                            GlobalTime ts, AState oldA, AState newA) {
  timed(1, [&] {
    claim2_.onStamp(node, txn, serial, block, role, ts, oldA, newA);
  });
  timed(2, [&] {
    claim3_.onStamp(node, txn, serial, block, role, ts, oldA, newA);
  });
  timed(3, [&] {
    epochs_.onStamp(node, txn, serial, block, role, ts, oldA, newA);
  });
  timed(5, [&] {
    valueChain_.onStamp(node, txn, serial, block, role, ts, oldA, newA);
  });
}

void TimedCheckers::onValueReceived(NodeId node, TransactionId txn,
                                    BlockId block, const BlockValue& value) {
  timed(5, [&] { valueChain_.onValueReceived(node, txn, block, value); });
}

void TimedCheckers::onOperation(const proto::OpRecord& op) {
  timed(0, [&] { programOrder_.onOperation(op); });
  timed(3, [&] { epochs_.onOperation(op); });
  timed(4, [&] { sc_.onOperation(op); });
  timed(5, [&] { valueChain_.onOperation(op); });
}

void verifyLayers(const Tracer& tracer, std::uint64_t wallNs, Result& res) {
  std::uint64_t total = 0;
  for (const char* core : TimedCheckers::kCores) {
    const std::string name = std::string("verify.") + core;
    const Tracer::Agg* a = tracer.findAgg(name);
    if (a == nullptr) continue;
    total += a->totalNs;
    res.layers[name + ".ns_per_event"] = ratio(
        static_cast<double>(a->totalNs), static_cast<double>(a->count));
  }
  res.layers["verify.share"] =
      ratio(static_cast<double>(total), static_cast<double>(wallNs));
}

}  // namespace lcdc::bench_suite
