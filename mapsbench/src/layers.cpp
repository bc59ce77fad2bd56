// Per-layer replays of the traced run: each layer's public function is
// called in process on the workload's inputs (or the standard 64x64 bend
// problem) under a harness span, and the layer metric is the median self
// time of its spans (the mean over a whole job for invdes.step_ms).
#include <cmath>
#include <filesystem>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/data/generator.hpp"
#include "core/data/sampler.hpp"
#include "devices/builders.hpp"
#include "fdfd/simulation.hpp"
#include "math/rng.hpp"
#include "net/http.hpp"
#include "nn/spectral.hpp"
#include "runtime/shard.hpp"

namespace mapsbench {

using namespace maps;

namespace {

serve::ServeResponse synthetic_field_response(std::uint64_t seed) {
  SplitMix rng(seed);
  serve::ServeResponse r;
  r.Ez = math::CplxGrid(kGrid, kGrid);
  for (index_t n = 0; n < r.Ez.size(); ++n) r.Ez[n] = {rng.uniform() - 0.5, rng.uniform() - 0.5};
  r.model_id = "bend-fno";
  r.model_version = 1;
  return r;
}

nn::Tensor random_tensor(std::vector<index_t> shape, std::uint64_t seed) {
  nn::Tensor t(std::move(shape));
  SplitMix rng(seed);
  for (index_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform() - 0.5);
  return t;
}

}  // namespace

void replay_serve_stages(const std::vector<std::string>& bodies,
                         serve::PredictionService* service,
                         const std::vector<std::string>& submit_bodies,
                         SpanRecorder& spans, PassResult& out) {
  const serve::WireDefaults defaults{};
  double reply_bytes = 0.0;
  for (std::size_t k = 0; k < bodies.size(); ++k) {
    const std::string id = "replay-" + std::to_string(k);
    const std::string raw = http_request_bytes("POST", "/v1/predict", bodies[k]);
    ScopedSpan request(spans, "replay.request", id);
    net::HttpRequest req;
    {
      ScopedSpan s(spans, "net.http_parse", id, request.index());
      net::ByteBuffer buf;
      buf.append(raw);
      net::HttpParser parser;
      if (parser.feed(buf) != net::HttpParser::Status::Ready) {
        throw std::runtime_error("replay: HttpParser rejected a captured request");
      }
      req = parser.take_request();
    }
    serve::WireRequest wr;
    {
      ScopedSpan s(spans, "serve.wire.decode", id, request.index());
      wr = serve::parse_request(io::json_parse(req.body), defaults);
    }
    const serve::ServeResponse response = synthetic_field_response(k + 1);
    ScopedSpan s(spans, "serve.wire.encode", id, request.index());
    reply_bytes = static_cast<double>(serve::encode_response_text(wr.id, response, true).size());
  }
  for (std::size_t k = 0; service != nullptr && k < submit_bodies.size(); ++k) {
    serve::WireRequest wr =
        serve::parse_request(io::json_parse(submit_bodies[k]), defaults);
    ScopedSpan s(spans, "serve.submit", "submit-" + std::to_string(k));
    (void)service->submit(std::move(wr.request)).get();
  }
  out.layer("net.http_parse_ms", median_self_ms(spans, "net.http_parse"));
  out.layer("serve.wire.decode_ms", median_self_ms(spans, "serve.wire.decode"));
  out.layer("serve.wire.encode_ms", median_self_ms(spans, "serve.wire.encode"));
  out.layer("serve.wire.reply_bytes", reply_bytes);
  out.layer("serve.submit_ms", median_self_ms(spans, "serve.submit"));
}

void replay_compute_layers(const Args& args, SpanRecorder& spans, PassResult& out) {
  // nn: the served model at batch 1 and 8, and one spectral layer.
  {
    const nn::ModelConfig cfg = served_model_config();
    const auto model = nn::make_model(cfg);
    const nn::Tensor x1 = random_tensor({1, cfg.in_channels, kGrid, kGrid}, args.seed);
    const nn::Tensor x8 = random_tensor({8, cfg.in_channels, kGrid, kGrid}, args.seed + 1);
    (void)model->infer(x1);
    for (int r = 0; r < 5; ++r) {
      ScopedSpan s(spans, "nn.infer.b1");
      (void)model->infer(x1);
    }
    for (int r = 0; r < 3; ++r) {
      ScopedSpan s(spans, "nn.infer.b8");
      (void)model->infer(x8);
    }
    math::Rng rng(7);
    const nn::SpectralConv2d layer(cfg.width, cfg.width, cfg.modes, cfg.modes, rng);
    const nn::Tensor xs = random_tensor({1, cfg.width, kGrid, kGrid}, args.seed + 2);
    (void)layer.infer(xs);
    for (int r = 0; r < 5; ++r) {
      ScopedSpan s(spans, "nn.spectral");
      (void)layer.infer(xs);
    }
    out.layer("nn.infer_ms.b1", median_self_ms(spans, "nn.infer.b1"));
    out.layer("nn.infer_ms_per_sample.b8", median_self_ms(spans, "nn.infer.b8") / 8.0);
    out.layer("nn.spectral_ms", median_self_ms(spans, "nn.spectral"));
    // Computed from the shapes, not counted: 5 N log2 N per complex FFT2 of
    // an N-point plane (c_in forward, c_out inverse) plus 8 flops per complex
    // multiply-add of the mode mixing over both retained corners.
    const double n = static_cast<double>(kGrid) * kGrid;
    const double c = static_cast<double>(cfg.width), m = static_cast<double>(cfg.modes);
    out.layer("nn.spectral.flops", 5.0 * n * std::log2(n) * 2.0 * c + 8.0 * 2.0 * m * m * c * c);
  }

  // fdfd / solver / datagen stages on the 64x64 bend problem.
  const devices::DeviceProblem device = devices::make_device(devices::DeviceKind::Bend);
  data::SamplerOptions so;
  so.num_patterns = 6;
  so.seed = static_cast<unsigned>(args.seed) + 4242u;
  const data::PatternSet patterns = data::sample_patterns(device, devices::DeviceKind::Bend, so);
  {
    const data::PreparedPattern prepared =
        data::prepare_pattern(device, patterns.densities[0], 0, patterns.ids[0]);
    const devices::Excitation& exc = device.excitations[0];
    for (int r = 0; r < 6; ++r) {
      std::optional<fdfd::Simulation> sim;
      {
        ScopedSpan s(spans, r == 0 ? "warm" : "fdfd.assemble");
        sim.emplace(device.spec, prepared.base_eps, exc.omega, device.sim_options);
      }
      {
        ScopedSpan s(spans, r == 0 ? "warm" : "solver.factorize");
        sim->backend().factorize();
      }
      for (int k = 0; k < 2; ++k) {
        ScopedSpan s(spans, r == 0 ? "warm" : "solver.solve");
        (void)sim->solve(exc.J);
      }
    }
    out.layer("fdfd.assemble_ms", median_self_ms(spans, "fdfd.assemble"));
    out.layer("solver.factorize_ms", median_self_ms(spans, "solver.factorize"));
    out.layer("solver.solve_ms", median_self_ms(spans, "solver.solve"));
  }
  for (std::size_t i = 0; i < patterns.densities.size(); ++i) {
    data::PreparedPattern prepared;
    {
      ScopedSpan s(spans, i == 0 ? "warm" : "datagen.prep");
      prepared = data::prepare_pattern(device, patterns.densities[i], i, patterns.ids[i]);
    }
    ScopedSpan s(spans, i == 0 ? "warm" : "datagen.solve");
    (void)data::solve_prepared(device, prepared, patterns.strategy);
  }
  out.layer("datagen.prep_ms", median_self_ms(spans, "datagen.prep"));
  out.layer("datagen.solve_ms", median_self_ms(spans, "datagen.solve"));

  // The invdes job's optimizer steps, in process, without the jobs layer:
  // every step of a whole job, since step cost changes along the projection
  // schedule and a job's wall time divides by all of them.
  {
    (void)run_invdes_in_process(invdes_seed_pool()[0], spans);
    const std::vector<double> steps = self_times_of(spans.spans(), "invdes.step");
    out.layer("invdes.step_ms", std::accumulate(steps.begin(), steps.end(), 0.0) / steps.size());
  }

  // Shard commit-journal appends.
  {
    const std::string path = args.work_dir + "/replay-shard.journal";
    std::filesystem::remove(path);
    {
      runtime::ShardJournal journal(path);
      for (std::uint64_t i = 0; i < 200; ++i) {
        ScopedSpan s(spans, "shard.append");
        journal.append({0, i, 1000 * (i + 1)});
      }
    }
    std::filesystem::remove(path);
    out.layer("shard.append_ms", median_self_ms(spans, "shard.append"));
  }
}

}  // namespace mapsbench
