// Shared pieces of the four benchmark workloads (workloads.cpp), the
// per-layer replays (layers.cpp) and the entry point (main.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "io/json.hpp"
#include "nn/models.hpp"
#include "serve/wire.hpp"

namespace mapsbench {

// Fixed thread budget on a 4-core host: the HTTP event loop, two service
// workers (one on invdes_job) and the client thread (serve workloads); the
// datagen orchestrator and three pipeline workers (datagen). MAPS_THREADS=1
// keeps library parallel_for calls on the caller's thread.
constexpr int kServiceWorkers = 2;
constexpr int kDatagenWorkers = 3;
constexpr int kConnections = 4;
constexpr int kSetupRepeats = 5;
constexpr int kGrid = 64;
constexpr int kInvdesIterations = 60;  // optimizer steps per invdes job

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_work";
  std::string reference_dir = "mapsbench/reference";
};

/// What one pass of a workload produced.
struct PassResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  double wall_ms = 0.0;             // wall time of the fixed, timed work
  std::map<std::string, double> end_to_end;  // units: the tables in main.cpp
  std::map<std::string, double> layers;

  void error(std::string message) { errors.push_back(std::move(message)); }
  void metric(const std::string& name, double value) { end_to_end[name] = value; }
  void layer(const std::string& name, double value) { layers[name] = value; }
};

/// One pass of a workload. With `spans` enabled the pass records harness
/// spans and, after its timed work, runs the per-layer replays and scrapes.
PassResult run_predict(const Args& args, bool hot, SpanRecorder& spans);
PassResult run_invdes(const Args& args, SpanRecorder& spans);
PassResult run_datagen(const Args& args, SpanRecorder& spans);

/// One invdes job of the invdes workload, run in process through
/// core/invdes without the jobs layer, each step under an "invdes.step"
/// span. Returns the final FoM.
double run_invdes_in_process(unsigned seed, SpanRecorder& spans);

/// Record the in-process final FoM of every pooled invdes job seed into
/// `path` (the reference the invdes workload checks against).
void record_invdes_reference(const std::string& path);

// --- shared inputs -------------------------------------------------------

/// The served surrogate: an untrained, seeded FNO at the ROADMAP shape.
maps::nn::ModelConfig served_model_config();

/// A 64x64 permittivity pattern (silica..silicon, smooth random features).
std::vector<double> make_pattern(std::uint64_t seed);
/// One /v1/predict body for `eps` (doubles printed round-trip exact).
std::string predict_body(std::uint64_t id, const std::vector<double>& eps,
                         bool return_field, bool high_fidelity);

/// The invdes job spec every job of the invdes workload submits.
maps::io::JsonValue invdes_job_spec(unsigned seed, int iterations);
/// Job seeds with a recorded reference FoM.
std::vector<unsigned> invdes_seed_pool();

// --- per-layer replays (layers.cpp) --------------------------------------

/// Serve stages replayed in process through the public functions:
/// net::HttpParser, io::json_parse + serve::parse_request,
/// serve::encode_response_text and, when `service` is non-null,
/// PredictionService::submit(...).get() on `submit_bodies`.
void replay_serve_stages(const std::vector<std::string>& bodies,
                         maps::serve::PredictionService* service,
                         const std::vector<std::string>& submit_bodies,
                         SpanRecorder& spans, PassResult& out);

/// Compute layers replayed on the standard 64x64 bend problem and the
/// served model: nn, fdfd, solver, invdes step, datagen stages, shard
/// journal appends.
void replay_compute_layers(const Args& args, SpanRecorder& spans, PassResult& out);

/// Median of the self times of spans called `name` (0 when none).
double median_self_ms(const SpanRecorder& spans, const std::string& name);

}  // namespace mapsbench
