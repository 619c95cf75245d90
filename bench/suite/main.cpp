// lcdc_bench_suite: runs ONE workload of the benchmark and prints its raw
// samples as one JSON line.  report.py (driven by run.sh) turns the
// samples into medians, quartiles and the final metric line.
//
//   lcdc_bench_suite --workload NAME [--seed S] [--seconds T]
//                    [--trace-file FILE] [--smoke]
//
// --trace-file adds the traced phase and appends its spans to FILE.
//
// Exit codes: 0 result printed (its "correct" field carries the gates),
// 1 workload error, 2 refused (unoptimized or sanitizer build without
// --smoke), 64 usage.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "suite.hpp"

namespace {

using namespace lcdc::bench_suite;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = sizeof(LCDC_BENCH_SANITIZE) > 1;
#endif

using WorkloadFn = Result (*)(const Options&, Tracer*);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table = {
      {"sim-hot", runSimHot},       {"campaign-mixed", runCampaignMixed},
      {"mc-3x2-d11", runMc3x2},     {"mc-4x1-sym", runMc4x1Sym},
      {"serve-tcp", runServeTcp},   {"serve-mem", runServeMem},
  };
  return table;
}

/// Round-trip decimal form: every digit as measured.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string array(const std::vector<double>& xs) {
  std::string out = "[";
  for (const double x : xs) {
    if (out.size() > 1) out += ',';
    out += num(x);
  }
  return out + ']';
}

std::string object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += quoted(k);
    out += ':';
    out += num(v);
  }
  return out + '}';
}

int usage(const std::string& why) {
  std::cerr << "lcdc_bench_suite: " << why
            << "\nusage: lcdc_bench_suite --workload NAME [--seed S] "
               "[--seconds T] [--trace-file FILE] [--smoke]\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    try {
      if (a == "--workload" && hasValue) opt.workload = argv[++i];
      else if (a == "--seed" && hasValue) opt.seed = std::stoull(argv[++i]);
      else if (a == "--seconds" && hasValue) opt.seconds = std::stod(argv[++i]);
      else if (a == "--trace-file" && hasValue) opt.traceFile = argv[++i];
      else if (a == "--smoke") opt.smoke = true;
      else return usage("bad argument " + a);
    } catch (const std::exception&) {
      return usage("bad value for " + a);
    }
  }
  const auto it = workloads().find(opt.workload);
  if (it == workloads().end()) return usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  if (!opt.smoke && (!kOptimized || kSanitized)) {
    std::cerr << "lcdc_bench_suite: refusing timed output from an "
                 "unoptimized or sanitizer build (use --smoke)\n";
    return 2;
  }

  Tracer tracer;
  Result res;
  try {
    res = it->second(opt, opt.traced() ? &tracer : nullptr);
  } catch (const std::exception& e) {
    std::cerr << "lcdc_bench_suite: " << opt.workload << ": " << e.what()
              << '\n';
    return 1;
  }

  std::vector<double> workPerS;
  std::vector<double> wall;
  std::vector<double> tracedWall;
  for (const Rep& r : res.reps) {
    workPerS.push_back(ratio(r.units, r.wallS));
    wall.push_back(r.wallS);
  }
  for (const Rep& r : res.tracedReps) tracedWall.push_back(r.wallS);
  // Peak RSS over set-up and the first rep: a fixed amount of work.  Later
  // reps of the threaded workloads add allocator-arena creep that depends
  // on timing (serve-tcp's run-to-run spread grows from ~1% to ~8%).
  const double peakRss =
      res.reps.empty() ? peakRssMb() : res.reps.front().peakRssMb;
  if (opt.traced()) {
    res.layers["trace_overhead"] = ratio(median(tracedWall), median(wall));
    std::ofstream os(opt.traceFile, std::ios::app);
    tracer.write(os, opt.workload);
    os << R"({"type":"layers","workload":")" << opt.workload
       << R"(","metrics":)" << object(res.layers) << "}\n";
    if (!os) {
      std::cerr << "lcdc_bench_suite: cannot write " << opt.traceFile << '\n';
      return 1;
    }
  }

  std::string gates = "[";
  for (const auto& [name, detail] : res.failedGates) {
    if (gates.size() > 1) gates += ',';
    gates += "{\"gate\":";
    gates += quoted(name);
    gates += ",\"detail\":";
    gates += quoted(detail);
    gates += '}';
  }
  gates += ']';

  std::cout << "{\"workload\":" << quoted(opt.workload)
            << ",\"smoke\":" << (opt.smoke ? "true" : "false")
            << ",\"correct\":" << (res.correct() ? "true" : "false")
            << ",\"attempted\":" << res.attempted
            << ",\"failed\":" << res.failed << ",\"failed_gates\":" << gates
            << ",\"unit\":" << quoted(res.unit)
            << ",\"samples\":{\"setup_s\":" << array(res.setupS)
            << ",\"work_per_s\":" << array(workPerS)
            << ",\"peak_rss_mb\":" << array({peakRss}) << '}'
            << ",\"layers\":" << object(res.layers)
            << ",\"extra\":" << object(res.extra)
            << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"compiler\":" << quoted(__VERSION__)
            << ",\"build_type\":" << quoted(LCDC_BENCH_BUILD_TYPE)
            << ",\"optimized\":" << (kOptimized ? "true" : "false")
            << ",\"sanitize\":" << quoted(LCDC_BENCH_SANITIZE)
            << ",\"cpu_s\":" << num(cpuSeconds())
            << ",\"wall_s\":" << num(secondsSince(start)) << "}}"
            << std::endl;
  return 0;
}
