// ledgerbench: the ledger's benchmark program.
//
//   ledgerbench --workload {tpcc|tpce|audit} --seed N
//               --seconds S --trace {0|1} --dir DIR [--trace-out FILE]
//               [--ledger {0|1}]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end metrics; with
// --trace 1 they are the per-layer metrics, and the spans of
// the run are written to --trace-out as Chrome trace JSON. Figures kept for
// the README only (see Report::Reference) go to standard error. --ledger 0
// runs tpcc, tpce or audit on the plain engine, for the ledger-vs-regular
// comparison. DIR is scratch space for data directories and is removed at
// the end. ledgerbench/run.py builds this program and is the command to run.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "bench.h"
#include "crypto/sha256.h"

using namespace ledgerbench;

namespace {

/// A workload: a transaction mix run by the round runner.
struct Workload {
  const char* name;
  std::unique_ptr<Mix> (*mix)();
};

constexpr Workload kWorkloads[] = {
    {"tpcc", MakeTpccMix},
    {"tpce", MakeTpceMix},
    {"audit", MakeAuditMix},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ledgerbench: %s\nusage: ledgerbench --workload "
               "{tpcc|tpce|audit} --seed N --seconds S "
               "--trace {0|1} --dir DIR [--trace-out FILE] [--ledger {0|1}]\n",
               why);
  std::exit(64);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; i++) {
    if (i + 1 >= argc) Usage("missing value");
    const std::string flag = argv[i];
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--dir") {
      options.dir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--ledger") {
      options.ledger = value != "0";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.dir.empty()) Usage("--dir is required");
  if (options.seconds < 1 || options.seconds > 600)
    Usage("--seconds must be in [1, 600]");
  if (options.trace && options.trace_path.empty())
    Usage("--trace 1 needs --trace-out");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = ParseArgs(argc, argv);

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (options.workload == w.name) workload = &w;
  if (workload == nullptr) Usage("unknown workload");
  const std::unique_ptr<Mix> mix = workload->mix();
  FreshDir(options.dir);
  std::unique_ptr<SpanLog> spans;
  if (options.trace)
    spans = std::make_unique<SpanLog>(LedgerWorkloadSpanCapacity(options, *mix));
  Probe probe(spans.get());
  Report report;
  RunLedgerWorkload(options, mix.get(), &probe, &report);

  if (spans != nullptr) {
    report.Check(spans->dropped() == 0, "trace dropped no spans");
    std::ofstream out(options.trace_path);
    out << spans->ToChromeJson() << "\n";
    report.Check(static_cast<bool>(out.flush()), "trace written");
  }
  std::filesystem::remove_all(options.dir);

  std::fprintf(stderr, "ledgerbench: sha256 kernel %s\n",
               sqlledger::Sha256::KernelName());
  std::fprintf(stderr, "ledgerbench: reference figures: %s\n",
               report.ReferenceJson().c_str());
  // The traced run's end-to-end figures, set beside an untraced run's, give
  // the tracing overhead.
  if (options.trace)
    std::fprintf(stderr,
                 "ledgerbench: end-to-end figures of the traced run: %s\n",
                 report.ToJson(false).c_str());
  std::printf("%s\n", report.ToJson(options.trace).c_str());
  return report.correct() ? 0 : 1;
}
