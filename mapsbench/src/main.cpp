// maps_bench: one workload of the MAPS benchmark per process.
//
//   maps_bench --workload <predict_hot|predict_cold|invdes_job|datagen>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--work-dir <dir>] [--reference-dir <dir>]
//   maps_bench --record-invdes-reference <path>
//
// --trace 0 prints the end-to-end metrics of one untraced pass. --trace 1
// runs a traced pass (harness spans, per-layer replays, /v1 scrapes), then
// an untraced pass of the same work, and prints the per-layer metrics plus
// bench.trace_overhead. The last stdout line is the result object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Run it through run.py, which builds it and scrubs the environment.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

using namespace mapsbench;

// Every metric each mode prints, with its unit; a workload that does not
// exercise a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"net.http_parse_ms", "ms"},
    {"serve.wire.decode_ms", "ms"},
    {"serve.wire.encode_ms", "ms"},
    {"serve.wire.reply_bytes", "bytes"},
    {"serve.submit_ms", "ms"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.lookup_ms", "ms"},
    {"serve.batcher.mean_batch", "count"},
    {"serve.batcher.queue_ms", "ms"},
    {"serve.unattributed_ms", "ms"},
    {"nn.infer_ms.b1", "ms"},
    {"nn.infer_ms_per_sample.b8", "ms"},
    {"nn.spectral_ms", "ms"},
    {"nn.spectral.flops", "flop"},
    {"fdfd.assemble_ms", "ms"},
    {"solver.factorize_ms", "ms"},
    {"solver.solve_ms", "ms"},
    {"solver.factorizations_per_op", "count"},
    {"solver.solves_per_op", "count"},
    {"solver.refine_iterations", "count"},
    {"invdes.step_ms", "ms"},
    {"jobs.overhead_ms_per_step", "ms"},
    {"jobs.journal_bytes_per_step", "bytes"},
    {"datagen.prep_ms", "ms"},
    {"datagen.solve_ms", "ms"},
    {"datagen.parallel_efficiency", "ratio"},
    {"datagen.reference_samples_per_s", "1/s"},
    {"shard.append_ms", "ms"},
    {"shard.merge_s", "s"},
    {"bench.latency_p90_ms", "ms"},
    {"bench.lateness_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
};

// Environment knobs of the library that change what is measured; run.py
// removes them, and the benchmark refuses to run with any of them set.
const char* const kScrubbed[] = {"MAPS_FAULTS", "MAPS_SLOW_REQUEST_MS", "MAPS_SOLVER_PRECISION",
                                 "MAPS_SOLVER_INTERLEAVED", "MAPS_NET_FORCE_POLL"};

int usage() {
  std::fprintf(stderr,
               "usage: maps_bench --workload <predict_hot|predict_cold|invdes_job|datagen> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <d>] "
               "[--reference-dir <d>]\n"
               "       maps_bench --record-invdes-reference <path>\n");
  return 2;
}

PassResult run_pass(const Args& args, SpanRecorder& spans) {
  if (args.workload == "predict_hot") return run_predict(args, true, spans);
  if (args.workload == "predict_cold") return run_predict(args, false, spans);
  if (args.workload == "invdes_job") return run_invdes(args, spans);
  return run_datagen(args, spans);
}

std::string format_result(bool correct, std::size_t attempted, std::size_t failed,
                          const std::vector<std::pair<const char*, const char*>>& names,
                          const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = values.find(names[i].first);
    std::snprintf(num, sizeof(num), "%.17g", it == values.end() ? 0.0 : it->second);
    out += std::string(i ? ", " : "") + "\"" + names[i].first + "\": {\"value\": " + num +
           ", \"unit\": \"" + names[i].second + "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) return usage();
    if (a == "--record-invdes-reference") {
      mapsbench::record_invdes_reference(v);
      return 0;
    }
    ++i;
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      args.seconds = std::atoi(v);
    } else if (a == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else if (a == "--reference-dir") {
      args.reference_dir = v;
    } else {
      return usage();
    }
  }
  const bool known = args.workload == "predict_hot" || args.workload == "predict_cold" ||
                     args.workload == "invdes_job" || args.workload == "datagen";
  if (!have_workload || !have_seed || !known || args.seconds < 1) return usage();
  for (const char* name : kScrubbed) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "maps_bench: %s is set; run through run.py\n", name);
      return 2;
    }
  }
  std::filesystem::create_directories(args.work_dir);

  try {
    if (!args.trace) {
      SpanRecorder off(false);
      const PassResult r = run_pass(args, off);
      for (const std::string& e : r.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
      const bool correct = r.errors.empty() && r.failed == 0;
      std::printf("%s\n", format_result(correct, r.attempted, r.failed, kEndToEnd, r.end_to_end).c_str());
      return correct ? 0 : 1;
    }
    SpanRecorder spans(true);
    PassResult traced = run_pass(args, spans);
    spans.write(args.work_dir + "/spans-" + args.workload + "-" + std::to_string(args.seed) +
                ".ndjson");
    SpanRecorder off(false);
    const PassResult plain = run_pass(args, off);
    traced.layer("bench.trace_overhead", traced.wall_ms / plain.wall_ms);
    std::vector<std::string> errors = traced.errors;
    errors.insert(errors.end(), plain.errors.begin(), plain.errors.end());
    for (const std::string& e : errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
    const std::size_t failed = traced.failed + plain.failed;
    const bool correct = errors.empty() && failed == 0;
    std::printf("%s\n", format_result(correct, traced.attempted + plain.attempted, failed,
                                      kPerLayer, traced.layers)
                            .c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maps_bench: %s\n", e.what());
    return 1;
  }
}
