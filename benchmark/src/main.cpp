// sfc_bench — runs one benchmark workload in this process.
//
//   sfc_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--self-check] [--work-dir DIR] [--out DIR]
//   sfc_bench --list
//
// Prints `workload metric value unit` for every metric, then, as the last
// line of standard output, the JSON result object
// {"correct", "attempted", "failed", "metrics"}.  Untraced runs report the
// end-to-end metrics and write <out>/<workload>.json; traced runs report the
// per-layer metrics and write <out>/<workload>.layers.json plus the Chrome
// trace <out>/<workload>.trace.json.  Exits 0 only when every answer and
// invariant checked out.
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "harness.h"
#include "workloads.h"

namespace {

int usage(const std::string& message) {
  std::cerr << "error: " << message << "\n"
            << "usage: sfc_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--self-check] [--work-dir DIR] [--out DIR]\n"
               "       sfc_bench --list\n";
  return 2;
}

std::string run_json(const bench::RunReport& report, const std::string& line) {
  std::string failures = "[";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    failures += (i ? ", " : "") + bench::json_string(report.failures[i]);
  }
  failures += "]";
  // The result object plus the definition that reproduces the run.
  std::string extra = ", \"failures\": " + failures;
  if (!report.samples_json.empty()) extra += ", \"samples\": " + report.samples_json;
  return line.substr(0, line.size() - 1) + extra +
         ", \"definition\": " + report.definition_json + "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunOptions options;
  std::string workload;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--list") {
        for (const bench::WorkloadSpec& spec : bench::workloads()) {
          std::cout << spec.name << "\n";
        }
        return 0;
      } else if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        options.trace = v == "1";
      } else if (arg == "--self-check") {
        options.self_check = true;
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--out") {
        options.out_dir = value();
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  const bench::WorkloadSpec* spec = bench::find_workload(workload);
  if (spec == nullptr) return usage("unknown or missing --workload '" + workload + "'");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.work_dir.empty()) {
    options.work_dir = (std::filesystem::temp_directory_path() /
                        ("sfc_bench-" + workload + "-" + std::to_string(::getpid())))
                           .string();
  }

  try {
    bench::SpanLog spans(options.trace);
    const bench::RunReport report = bench::run_workload(*spec, options, spans);
    for (const bench::Metric& m : report.metrics) {
      std::cout << spec->name << " " << m.name << " " << bench::json_number(m.value)
                << " " << m.unit << "\n";
    }
    for (const std::string& f : report.failures) std::cerr << "FAILED: " << f << "\n";
    const std::string line = bench::result_line(report);
    if (!options.out_dir.empty()) {
      std::filesystem::create_directories(options.out_dir);
      const std::string base = options.out_dir + "/" + spec->name;
      bench::write_file(base + (options.trace ? ".layers.json" : ".json"),
                        run_json(report, line));
      if (options.trace) bench::write_file(base + ".trace.json", spans.chrome_json());
    }
    std::cout << line << std::endl;
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << spec->name << ": " << e.what() << "\n";
    std::error_code ignored;
    std::filesystem::remove_all(options.work_dir, ignored);
    return 1;
  }
}
