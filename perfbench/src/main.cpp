// perfbench — the end-to-end benchmark of ccaperf with a per-layer ledger.
//
//   perfbench --workload <amr_paper|amr_lanes|tenants|characterize>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--references perfbench/references.txt]
//             [--git-rev <rev>] [--source-digest <hash>]
//
// --trace 0 measures the end-to-end metrics with the timing ports off.
// --trace 1 measures an untraced phase and a traced phase (half the time
// each) and reports the per-layer ledger. The last stdout line is the
// result object; the full report (manifest, configuration, named metrics,
// ledger) and the traced spans go to .perfbench_out/. Exit status is 1 when any
// correctness check failed.

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "euler/simd.hpp"
#include "support/json.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Reports and spans land here, relative to the checkout root.
constexpr const char* kOutDir = ".perfbench_out";

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <amr_paper|amr_lanes|tenants|characterize>"
               " --seed <n> --seconds <s> --trace <0|1> [--references <file>]"
               " [--git-rev <rev>] [--source-digest <hash>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") o.workload = val;
      else if (key == "--seed") o.seed = std::stoull(val);
      else if (key == "--seconds") o.seconds = std::stod(val);
      else if (key == "--trace") o.trace = std::stoi(val) != 0;
      else if (key == "--references") o.references = val;
      else if (key == "--git-rev") o.git_rev = val;
      else if (key == "--source-digest") o.source_digest = val;
      else usage("unknown option " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (o.workload != "amr_paper" && o.workload != "amr_lanes" &&
      o.workload != "tenants" && o.workload != "characterize")
    usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) usage("--seconds must be in (0, 3600]");
  return o;
}

/// Every configuration is set through public APIs; a CCAPERF_* variable
/// would silently change what is measured.
void refuse_env_knobs() {
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "CCAPERF_", 8) == 0) {
      std::cerr << "perfbench: refusing to run with " << *e
                << " set; unset every CCAPERF_* variable\n";
      std::exit(2);
    }
}

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}";
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0.0, total = 0.0, steal = 0.0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::string manifest_json(const Options& o, const Result& r, double steal_pct) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"simd_isa\": \"" << euler::simd::isa_name(euler::simd::active())
     << "\", \"counter_backend\": \"" << counter_backend() << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"git_revision\": \"" << ccaperf::json_escape(o.git_rev)
     << "\", \"source_digest\": \"" << ccaperf::json_escape(o.source_digest)
     << "\", \"seed\": " << o.seed
     << ", \"seconds\": " << num(o.seconds) << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"host_steal_pct\": " << num(steal_pct)
     << ", \"config\": " << r.config_json << "}";
  return os.str();
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::cout << title << '\n';
  for (const Metric& m : ms)
    std::cout << "  " << std::left << std::setw(32) << m.name << std::right
              << std::setw(18) << num(m.value) << ' ' << m.unit << '\n';
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  os << "kind,rank,thread,parent,unit,t0_ns,t1_ns,self_ns,seq,a,b\n";
  for (const Span& s : spans)
    os << span_name(s.kind) << ',' << s.rank << ',' << s.thread << ',' << s.parent
       << ',' << s.unit << ',' << s.t0 << ',' << s.t1 << ',' << s.self() << ','
       << s.seq << ',' << s.a << ',' << s.b << '\n';
}

int run(int argc, char** argv) {
  refuse_env_knobs();
  const Options opt = parse(argc, argv);
  const References ref = load_references(opt.references);

  const auto [steal0, total0] = cpu_jiffies();
  Result res = opt.workload == "tenants"        ? run_tenants(opt, ref)
               : opt.workload == "characterize" ? run_characterize(opt, ref)
                                                : run_amr(opt, ref);
  if (res.attempted == 0) {  // nothing ran: report it as one failed unit
    res.attempted = 1;
    res.failed = 1;
  }
  const double error_rate =
      static_cast<double>(res.failed) / static_cast<double>(res.attempted);
  const auto [steal1, total1] = cpu_jiffies();
  // Hypervisor steal during the run: on a shared host this is the usual
  // reason one run reads slower than its neighbours.
  const double steal_pct =
      total1 > total0 ? 100.0 * (steal1 - steal0) / (total1 - total0) : 0.0;
  const std::string manifest = manifest_json(opt, res, steal_pct);

  std::cout << "perfbench " << opt.workload << " seed=" << opt.seed
            << " seconds=" << num(opt.seconds) << " trace=" << opt.trace << '\n'
            << "manifest " << manifest << '\n';
  print_table("end-to-end (untraced):", res.end_to_end);
  print_table("named:", res.named);
  std::cout << "  error_rate                      " << num(error_rate) << " ("
            << res.failed << " of " << res.attempted << " units failed)\n";
  if (opt.trace) print_table("per-layer ledger (traced):", res.per_layer);
  for (const std::string& d : res.digests) std::cout << "digest " << d << '\n';
  for (const std::string& f : res.failures) std::cout << "FAILED: " << f << '\n';

  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string stem = std::string(kOutDir) + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           std::to_string(opt.trace ? 1 : 0);
  {
    std::ofstream os(stem + ".json");
    os << "{\"manifest\": " << manifest
       << ",\n \"end_to_end\": " << metrics_json(res.end_to_end)
       << ",\n \"named\": " << metrics_json(res.named)
       << ",\n \"per_layer\": " << metrics_json(res.per_layer)
       << ",\n \"error_rate\": " << num(error_rate) << ", \"attempted\": " << res.attempted
       << ", \"failed\": " << res.failed << "}\n";
  }
  if (opt.trace) write_spans(stem + "-spans.csv", res.spans);

  const std::vector<Metric>& out = opt.trace ? res.per_layer : res.end_to_end;
  std::cout << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
            << ", \"metrics\": " << metrics_json(out) << "}" << std::endl;
  return res.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 3;
  }
}
