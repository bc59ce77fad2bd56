// Dataset-generation throughput: the seed per-pattern parallel_for baseline
// vs the pipelined runtime (each the median of 5 alternating runs) vs a
// 2-shard sharded+merged run, on the bend benchmark device. Emits
// BENCH_datagen_throughput.json for regression tracking; the sharded leg
// also asserts the merged file is byte-identical to the single-process
// pipelined save (the runtime's core guarantee).
//
// Usage: bench_datagen_throughput [output.json]
//   MAPS_BENCH_PATTERNS  pattern count (default 12)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "io/json.hpp"
#include "math/parallel.hpp"
#include "runtime/datagen.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

maps::io::JsonValue leg_json(std::size_t patterns, double seconds) {
  maps::io::JsonValue v;
  v["seconds"] = seconds;
  v["patterns_per_s"] = seconds > 0 ? static_cast<double>(patterns) / seconds : 0.0;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace maps;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_datagen_throughput.json";
  int n_patterns = 12;
  if (const char* env = std::getenv("MAPS_BENCH_PATTERNS")) {
    n_patterns = std::max(2, std::atoi(env));
  }

  const auto device = devices::make_device(devices::DeviceKind::Bend);
  data::SamplerOptions opt;
  opt.strategy = data::SamplingStrategy::Random;
  opt.num_patterns = n_patterns;
  opt.seed = 7;
  const auto patterns = data::sample_patterns(device, devices::DeviceKind::Bend, opt);
  const std::size_t m = patterns.densities.size();
  const std::string name = "bending/random";
  const std::vector<runtime::DatagenPhase> phases = {{&device, &patterns, 1}};

  const auto tmp = std::filesystem::temp_directory_path();
  const std::string seq_path = (tmp / "maps_bench_seq.mapsd").string();
  const std::string pipe_path = (tmp / "maps_bench_pipe.mapsd").string();
  const std::string shard_path = (tmp / "maps_bench_shard.mapsd").string();

  // Warm-up (allocator, page cache) outside the timed legs.
  {
    data::SamplerOptions w = opt;
    w.num_patterns = 2;
    const auto wp = data::sample_patterns(device, devices::DeviceKind::Bend, w);
    (void)data::generate_dataset_reference(device, wp);
  }

  // Leg 1: the seed baseline — parallel_for over simulate_pattern + save.
  auto run_sequential = [&] {
    bench::Stopwatch t;
    auto ds = data::generate_dataset_reference(device, patterns);
    ds.name = name;
    ds.save(seq_path);
    return t.seconds();
  };

  // Leg 2: the pipelined runtime (one task per pattern in a bounded,
  // in-order window; prepared-band fast path) + save.
  runtime::DatagenStats pipe_stats;
  auto run_pipelined = [&] {
    bench::Stopwatch t;
    auto ds = runtime::generate_pipelined(phases, name, {}, &pipe_stats);
    ds.save(pipe_path);
    return t.seconds();
  };

  // One run of a ~0.3 s leg is at the mercy of whatever else the host does
  // in that window, so each leg runs kReps times, alternating which goes
  // first, and the gated speedup is the ratio of the two medians.
  constexpr int kReps = 5;
  std::vector<double> seq_runs, pipe_runs;
  for (int r = 0; r < kReps; ++r) {
    if (r % 2 == 0) {
      seq_runs.push_back(run_sequential());
      pipe_runs.push_back(run_pipelined());
    } else {
      pipe_runs.push_back(run_pipelined());
      seq_runs.push_back(run_sequential());
    }
  }
  const double s_seq = median(seq_runs);
  const double s_pipe = median(pipe_runs);

  // Leg 3: two shards run back-to-back plus the merge — the end-to-end cost
  // of a horizontally sharded run on one host.
  for (int i = 0; i < 2; ++i) {
    std::filesystem::remove(runtime::shard_part_path(shard_path, i, 2));
    std::filesystem::remove(runtime::shard_manifest_path(shard_path, i, 2));
  }
  bench::Stopwatch t_shard;
  for (int i = 0; i < 2; ++i) {
    runtime::DatagenOptions opts;
    opts.shard = {i, 2};
    runtime::generate_sharded(phases, name, shard_path, opts);
  }
  runtime::merge_shards(shard_path, 2);
  const double s_shard = t_shard.seconds();

  const bool identical = slurp(pipe_path) == slurp(shard_path);
  const double speedup = s_pipe > 0 ? s_seq / s_pipe : 0.0;

  io::JsonValue report;
  report["device"] = "bending";
  report["patterns"] = static_cast<int>(m);
  report["threads"] = static_cast<int>(math::num_threads());
  report["sequential"] = leg_json(m, s_seq);
  report["pipelined"] = leg_json(m, s_pipe);
  // Every pipelined run does the same solves; rate them over the median
  // time so all pipelined fields describe one figure.
  report["pipelined"]["solves_per_s"] =
      s_pipe > 0 ? static_cast<double>(pipe_stats.solves) / s_pipe : 0.0;
  report["sharded_2_merged"] = leg_json(m, s_shard);
  report["speedup_pipelined_vs_sequential"] = speedup;
  report["merge_byte_identical"] = identical;
  io::json_save(report, out_path);

  std::printf("datagen throughput (%zu patterns, %zu threads, median of %d runs)\n", m,
              math::num_threads(), kReps);
  std::printf("  sequential : %.2fs  %.2f patterns/s\n", s_seq, m / s_seq);
  std::printf("  pipelined  : %.2fs  %.2f patterns/s  (%.2fx)\n", s_pipe, m / s_pipe,
              speedup);
  std::printf("  2-shard+merge: %.2fs  %.2f patterns/s  merge_identical=%s\n",
              s_shard, m / s_shard, identical ? "yes" : "NO");
  std::printf("  -> %s\n", out_path.c_str());

  if (!identical) {
    std::cerr << "FAIL: merged shards are not byte-identical\n";
    return 1;
  }
  return 0;
}
