// Shared plumbing of the perfbench runner: run options, the result
// record every workload fills, and small statistics helpers.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Small sizes for the benchmark's own tests; never used for numbers.
  bool smoke = false;
  std::string daemon_path;  // limoncellod binary (control_wire)
  // control_wire only: overrides the stored offered load, for
  // re-deriving it on a new host (see README.md).
  int endpoints = 0;
  std::string run_dir;      // scratch directory inside the checkout
};

// The result of one run. Metrics keep insertion order; perfbench
// prints them as the last line of stdout.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit);
  // Records a failed output check: the run is not correct.
  void Fail(const std::string& what);

  // Adds the trace reduction shared by every workload: span count, the
  // traced end-to-end time, the sum over top-level span names of count x
  // median wall time with the residual share of the end-to-end time it
  // leaves, and the same for the summed top-level wall time (the share
  // no top-level span covers).
  void TraceSummary(const Tracer& tracer, double traced_e2e_s);

  bool correct() const { return correct_; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  bool correct_ = true;
  std::vector<Entry> metrics_;
};

// Quantile q in [0, 1] by linear interpolation (0 for an empty input).
double Percentile(std::vector<double> values, double q);

// High-water resident set of this process, in MiB.
double PeakRssMb();

// Keeps the optimizer from discarding a computed value.
void Consume(std::uint64_t value);

// The workloads. Each fills `report` with its end-to-end metrics
// (untraced run) or its per-layer metrics (traced run).
void RunFleetAb(const Options& options, Report& report);
void RunSocketLoop(const Options& options, Report& report);
void RunControlWire(const Options& options, Report& report);
void RunTaxMix(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
