// The four benchmark workloads. Each pass sets up from scratch
// kSetupRepeats times (setup_s is the median), then runs a fixed amount of
// work decided by --seconds and the workload's nominal rate, never by how
// fast the program turns out to be, and checks every output.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/data/sampler.hpp"
#include "core/invdes/engine.hpp"
#include "core/invdes/init.hpp"
#include "core/train/encoding.hpp"
#include "devices/builders.hpp"
#include "fdfd/simulation.hpp"
#include "io/config.hpp"
#include "runtime/datagen.hpp"
#include "serve/http_server.hpp"
#include "serve/jobs.hpp"

namespace mapsbench {

namespace fs = std::filesystem;
using namespace maps;

// Offered rates of the open-loop workloads, about a quarter of what the
// parent commit sustains on the 4-core reference host with the thread budget
// above (see README.md). At half, queueing amplified the host's own speed
// drift into run-to-run swings of the percentiles larger than the
// benchmark's bound. Fixed: a faster program gets the same offered load.
constexpr double kHotRate = 110.0;   // requests/s
constexpr double kColdRate = 14.0;   // requests/s
constexpr int kHotPatterns = 32;
constexpr std::size_t kMinRequests = 100;  // p90 needs 10 samples beyond it

constexpr double kInvdesJobsPerSecond = 1.0;  // nominal, sets the job count
constexpr double kPollMs = 5.0;

// Nominal pattern rate, sets the batch count; each batch is two shards and
// a merge of kDatagenBatchPatterns patterns.
constexpr double kDatagenPatternsPerSecond = 100.0;
constexpr int kDatagenBatchPatterns = 200;

nn::ModelConfig served_model_config() {
  nn::ModelConfig cfg;
  cfg.kind = nn::ModelKind::Fno;
  cfg.in_channels = 4;
  cfg.out_channels = 2;
  cfg.width = 12;
  cfg.modes = 16;
  cfg.depth = 3;
  cfg.seed = 42;
  return cfg;
}

std::vector<double> make_pattern(std::uint64_t seed) {
  SplitMix rng(seed * 0x9E3779B97F4A7C15ull + 0x1234567ull);
  constexpr double kEpsLo = 2.0736, kEpsHi = 12.1104;  // SiO2, Si at 1.55 um
  double kx[4], ky[4], ph[4];
  for (int k = 0; k < 4; ++k) {
    kx[k] = 0.05 + 0.25 * rng.uniform();
    ky[k] = 0.05 + 0.25 * rng.uniform();
    ph[k] = 6.283185307179586 * rng.uniform();
  }
  std::vector<double> eps(static_cast<std::size_t>(kGrid * kGrid));
  for (int j = 0; j < kGrid; ++j) {
    for (int i = 0; i < kGrid; ++i) {
      double f = 0.0;
      for (int k = 0; k < 4; ++k) f += std::cos(kx[k] * i + ky[k] * j + ph[k]);
      const double s = 1.0 / (1.0 + std::exp(-3.0 * f));
      eps[static_cast<std::size_t>(j * kGrid + i)] = kEpsLo + (kEpsHi - kEpsLo) * s;
    }
  }
  return eps;
}

std::string predict_body(std::uint64_t id, const std::vector<double>& eps,
                         bool return_field, bool high_fidelity) {
  std::string out;
  out.reserve(eps.size() * 20 + 128);
  out += "{\"id\": " + std::to_string(id) + ", \"nx\": " + std::to_string(kGrid) +
         ", \"ny\": " + std::to_string(kGrid) + ", \"eps\": [";
  char num[40];
  for (std::size_t n = 0; n < eps.size(); ++n) {
    std::snprintf(num, sizeof(num), n == 0 ? "%.17g" : ",%.17g", eps[n]);
    out += num;
  }
  out += "], \"return_field\": ";
  out += return_field ? "true" : "false";
  if (high_fidelity) out += ", \"fidelity\": \"high\"";
  out += "}";
  return out;
}

io::JsonValue invdes_job_spec(unsigned seed, int iterations) {
  io::JsonValue v;
  v["type"] = "invdes";
  v["device"] = "bending";
  v["fidelity"] = 1;
  v["iterations"] = iterations;
  v["init"] = "random";
  v["seed"] = static_cast<int>(seed);
  return v;
}

std::vector<unsigned> invdes_seed_pool() {
  std::vector<unsigned> pool;
  for (unsigned s = 101; s < 101 + 64; ++s) pool.push_back(s);
  return pool;
}

double median_self_ms(const SpanRecorder& spans, const std::string& name) {
  const std::vector<double> self = self_times_of(spans.spans(), name);
  return self.empty() ? 0.0 : percentile(self, 0.5);
}

namespace {

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// An in-process serve_http on a free loopback port, with the served model
/// installed and, when `journal_dir` is set, the jobs API mounted.
struct ServeFixture {
  std::shared_ptr<serve::ModelRegistry> registry = std::make_shared<serve::ModelRegistry>();
  std::unique_ptr<serve::PredictionService> service;
  std::unique_ptr<serve::JobManager> jobs;
  serve::WireDefaults defaults{};
  std::atomic<bool> stop{false};
  std::atomic<int> port{0};
  std::thread thread;

  explicit ServeFixture(const std::string& journal_dir = {}, int workers = kServiceWorkers) {
    const nn::ModelConfig cfg = served_model_config();
    registry->install("bend-fno", cfg, nn::make_model(cfg));
    serve::ServeOptions options;
    options.workers = static_cast<std::size_t>(workers);
    service = std::make_unique<serve::PredictionService>(registry, options);
    if (!journal_dir.empty()) {
      serve::JobsOptions jo;
      jo.journal_dir = journal_dir;
      jobs = std::make_unique<serve::JobManager>(service->task_queue(), jo);
    }
    serve::HttpOptions http;
    http.stream.stop = &stop;
    http.jobs = jobs.get();
    thread = std::thread([this, http] {
      try {
        serve::serve_http(*service, defaults, http, nullptr, &port);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_http failed: %s\n", e.what());
        port.store(-1);
      }
    });
    while (port.load() == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (port.load() < 0) {
      thread.join();
      throw std::runtime_error("serve_http did not start");
    }
  }

  ~ServeFixture() {
    stop.store(true);
    if (thread.joinable()) thread.join();
    jobs.reset();
    service.reset();
  }
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;
};

double num_or(const io::JsonValue& doc, const std::string& key, double fallback = 0.0) {
  const io::JsonValue* v = doc.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::string get_text(HttpConn& conn, const std::string& target) {
  std::string body;
  const int status = conn.request("GET", target, {}, body);
  if (status != 200) throw std::runtime_error("GET " + target + " -> " + std::to_string(status));
  return body;
}

io::JsonValue get_json(HttpConn& conn, const std::string& target) {
  return io::json_parse(get_text(conn, target));
}

/// The field object of a /v1/predict reply (keys are emitted sorted, so it
/// sits between "escalated" and "id").
std::string_view field_of(std::string_view body) {
  const std::size_t a = body.find("\"field\":{");
  const std::size_t b = body.find("]},\"id\":", a);
  if (a == std::string_view::npos || b == std::string_view::npos) return {};
  return body.substr(a, b + 2 - a);
}

double rms_of(const math::CplxGrid& Ez) {
  double sumsq = 0.0;
  for (index_t n = 0; n < Ez.size(); ++n) sumsq += std::norm(Ez[n]);
  return Ez.size() == 0 ? 0.0 : std::sqrt(sumsq / static_cast<double>(Ez.size()));
}

bool close_rel(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max(std::abs(a), std::abs(b));
}

/// Replay bodies for workloads without predict traffic of their own: the
/// hot workload's first 16 patterns.
std::vector<std::string> standard_replay_bodies(std::uint64_t seed) {
  std::vector<std::string> out;
  for (std::uint64_t k = 0; k < 16; ++k) {
    out.push_back(predict_body(k, make_pattern(seed * 1000 + k), true, false));
  }
  return out;
}

/// Client-side spans of an open-loop run: one "client.request" span per
/// request (scheduled send -> last reply byte) with its "client.lateness"
/// child (scheduled -> actual send).
void record_client_spans(SpanRecorder& spans, const OpenLoopResult& r,
                         const std::vector<double>& schedule, double start_ms) {
  if (!spans.enabled()) return;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (r.latency_ms[i] < 0) continue;
    const double t0 = start_ms + schedule[i];
    const int parent = spans.add("client.request", t0, t0 + r.latency_ms[i], std::to_string(i));
    spans.add("client.lateness", t0, t0 + r.lateness_ms[i], std::to_string(i), parent);
  }
}

}  // namespace

// --- predict_hot / predict_cold ---------------------------------------------

PassResult run_predict(const Args& args, bool hot, SpanRecorder& spans) {
  PassResult out;
  const double rate = hot ? kHotRate : kColdRate;
  const std::size_t n =
      std::max(kMinRequests, static_cast<std::size_t>(std::llround(rate * args.seconds)));

  // Inputs, from the seed only.
  std::vector<std::string> bodies;   // per distinct pattern (hot) / request (cold)
  std::vector<std::size_t> pick(n);  // request -> body
  std::vector<bool> high(n, false);
  SplitMix rng(args.seed);
  if (hot) {
    for (std::uint64_t p = 0; p < kHotPatterns; ++p) {
      bodies.push_back(predict_body(p, make_pattern(args.seed * 1000 + p), true, false));
    }
    for (std::size_t i = 0; i < n; ++i) pick[i] = rng.next() % kHotPatterns;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      high[i] = i % 5 == 4;
      bodies.push_back(predict_body(i, make_pattern(args.seed * 1000003 + i), false, high[i]));
      pick[i] = i;
    }
  }
  std::vector<std::string> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests[i] = http_request_bytes("POST", "/v1/predict", bodies[pick[i]]);
  }
  const std::vector<double> schedule = poisson_schedule(args.seed, rate, n);

  // Set-up: model build, server boot, cache pre-warm (hot) and warm-up
  // requests, repeated; the last instance serves the timed work.
  std::vector<std::string> warm_fields(hot ? kHotPatterns : 0);
  std::unique_ptr<ServeFixture> fx;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    fx.reset();
    const double t0 = now_ms();
    fx = std::make_unique<ServeFixture>();
    HttpConn conn(fx->port.load());
    std::vector<std::string> warm;
    if (hot) {
      for (const std::string& b : bodies) warm.push_back(http_request_bytes("POST", "/v1/predict", b));
      const auto replies = conn.pipeline(warm);  // misses: fills the cache
      for (int p = 0; p < kHotPatterns; ++p) {
        if (replies[p].first != 200) throw std::runtime_error("pre-warm request failed");
        warm_fields[p] = std::string(field_of(replies[p].second));
        if (warm_fields[p].empty()) throw std::runtime_error("pre-warm reply has no field");
      }
      (void)conn.pipeline(warm);  // hits: warms the hit path
    } else {
      for (int w = 0; w < 8; ++w) {
        const auto eps = make_pattern(0xC0FFEEull + args.seed * 16 + w);
        warm.push_back(http_request_bytes("POST", "/v1/predict",
                                          predict_body(w, eps, false, w % 4 == 3)));
      }
      for (const auto& r : conn.pipeline(warm)) {
        if (r.first != 200) throw std::runtime_error("warm-up request failed");
      }
    }
    setups.push_back((now_ms() - t0) / 1000.0);
  }

  HttpConn scrape(fx->port.load());
  const io::JsonValue before = get_json(scrape, "/v1/stats");
  const std::string metrics_before = get_text(scrape, "/v1/metrics");

  // Timed, open-loop fixed work.
  std::vector<double> rms(n, std::nan(""));
  auto check = [&](const Reply& r) {
    if (hot) {
      return r.body.rfind("{\"cache_hit\":true,", 0) == 0 &&
             field_of(r.body) == warm_fields[pick[r.index]];
    }
    const io::JsonValue doc = io::json_parse(std::string(r.body));
    const bool ok = doc.at("ok").as_bool() && !doc.at("cache_hit").as_bool() &&
                    doc.at("source").as_string() == (high[r.index] ? "solver" : "surrogate");
    rms[r.index] = doc.at("rms").as_number();
    return ok && std::isfinite(rms[r.index]);
  };
  const double start = now_ms();
  const OpenLoopResult res = run_open_loop(fx->port.load(), kConnections, requests, schedule, check);
  out.wall_ms = res.wall_ms;
  out.attempted = n;
  out.failed = res.failed;
  if (res.failed > 0) out.error(std::to_string(res.failed) + " requests failed their check");
  record_client_spans(spans, res, schedule, start);

  const io::JsonValue after = get_json(scrape, "/v1/stats");
  const std::string metrics_after = get_text(scrape, "/v1/metrics");
  // Peak RSS of the workload itself, before the checker's direct solves.
  out.metric("peak_rss_mb", peak_rss_mb());

  // Cold: sampled replies must equal a direct Module::infer of the served
  // model (surrogate) or a direct fdfd::Simulation solve (fidelity high).
  if (!hot) {
    const auto model = fx->registry->active();
    std::size_t checked_low = 0, checked_high = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::isnan(rms[i])) continue;
      const bool sample = high[i] ? (i / 5) % 4 == 0 && checked_high < 6
                                  : i % 13 == 0 && checked_low < 16;
      if (!sample) continue;
      const serve::WireRequest wr = serve::parse_request(io::json_parse(bodies[i]), fx->defaults);
      double direct = 0.0;
      if (high[i]) {
        fdfd::SimOptions so;
        so.pml = wr.request.pml;
        so.set_fidelity(solver::FidelityLevel::High);
        fdfd::Simulation sim(wr.request.spec, wr.request.eps, wr.request.omega, so);
        direct = rms_of(sim.solve(wr.request.J));
        ++checked_high;
      } else {
        nn::Tensor in = train::make_input_batch(1, kGrid, kGrid, model->encoding);
        train::encode_input(in, 0, wr.request.eps, wr.request.J, wr.request.omega,
                            wr.request.spec.dl, model->standardizer, model->encoding);
        direct = rms_of(train::decode_field(model->model->infer(in), 0, model->standardizer));
        ++checked_low;
      }
      if (!close_rel(direct, rms[i], high[i] ? 1e-9 : 0.0)) {
        ++out.failed;
        char msg[160];
        std::snprintf(msg, sizeof(msg), "request %zu: served rms %.17g != direct %.17g", i,
                      rms[i], direct);
        out.error(msg);
      }
    }
    if (checked_high == 0 || checked_low == 0) out.error("cold check sampled no replies");
  }

  // End-to-end metrics.
  std::vector<double> lat, late;
  for (std::size_t i = 0; i < n; ++i) {
    if (res.latency_ms[i] >= 0) lat.push_back(res.latency_ms[i]);
    late.push_back(res.lateness_ms[i]);
  }
  if (lat.size() >= kMinRequests) {
    out.metric("latency_p50_ms", percentile(lat, 0.5));
    out.layer("bench.latency_p90_ms", percentile(lat, 0.9));
  }
  out.metric("setup_s", median(setups));
  out.metric("throughput_per_s", static_cast<double>(lat.size()) / (res.wall_ms / 1000.0));

  if (spans.enabled()) {
    std::ofstream(args.work_dir + "/metrics-" + args.workload + ".prom") << metrics_after;
    std::ofstream(args.work_dir + "/stats-" + args.workload + ".json") << after.dump(2);

    // Counters and histograms over the timed window only.
    auto delta = [&](const std::string& key) { return num_or(after, key) - num_or(before, key); };
    auto window_p50 = [&](const std::string& family) {
      return window_percentile(metrics_before, metrics_after, family, 0.5);
    };
    const double batched = num_or(after, "avg_batch") * num_or(after, "batches") -
                           num_or(before, "avg_batch") * num_or(before, "batches");
    out.layer("serve.cache.hit_ratio",
              delta("requests") > 0 ? delta("cache_hits") / delta("requests") : 0.0);
    out.layer("serve.cache.lookup_ms", window_p50("maps_serve_cache_lookup_ms"));
    out.layer("serve.batcher.mean_batch", delta("batches") > 0 ? batched / delta("batches") : 0.0);
    out.layer("serve.batcher.queue_ms", window_p50("maps_serve_batch_queue_ms"));
    out.layer("serve.unattributed_ms",
              percentile(lat, 0.5) - window_p50("maps_serve_ingress_parse_ms") -
                  window_p50("maps_serve_request_total_ms"));
    out.layer("solver.factorizations_per_op",
              window_count(metrics_before, metrics_after, "maps_solver_factorize_ms") / n);
    out.layer("solver.solves_per_op",
              window_count(metrics_before, metrics_after, "maps_solver_solve_ms") / n);
    out.layer("solver.refine_iterations", delta("solver_refine_iterations"));
    out.layer("bench.lateness_ms", percentile(late, highest_supported_quantile(n, 0.99)));

    // Replays: the first 16 distinct request bodies; submit replays hit the
    // cache on the hot workload and run fresh misses on the cold one.
    const std::vector<std::string> replay(bodies.begin(), bodies.begin() + 16);
    std::vector<std::string> submit = replay;
    if (!hot) {
      submit.clear();
      for (std::uint64_t k = 0; k < 16; ++k) {
        submit.push_back(predict_body(k, make_pattern(0xFEEDull + args.seed * 64 + k), false, false));
      }
    }
    replay_serve_stages(replay, fx->service.get(), submit, spans, out);
    replay_compute_layers(args, spans, out);
  }
  fx.reset();
  return out;
}

// --- invdes_job ----------------------------------------------------------------

PassResult run_invdes(const Args& args, SpanRecorder& spans) {
  PassResult out;
  const std::vector<unsigned> pool = invdes_seed_pool();
  const std::size_t jobs = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(args.seconds * kInvdesJobsPerSecond)), 3, pool.size());
  // The seed picks which pooled job seeds run, in which order.
  std::vector<unsigned> seeds = pool;
  SplitMix rng(args.seed);
  for (std::size_t i = seeds.size() - 1; i > 0; --i) std::swap(seeds[i], seeds[rng.next() % (i + 1)]);
  seeds.resize(jobs);

  const io::JsonValue reference =
      io::json_load(args.reference_dir + "/invdes_fom.json").at("fom");

  const std::string journal_dir = args.work_dir + "/jobs";
  std::unique_ptr<ServeFixture> fx;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    fx.reset();
    fs::remove_all(journal_dir);
    const double t0 = now_ms();
    // One service worker: a job runs one step at a time, and with two the
    // steps hop between workers' malloc arenas, which made peak RSS take
    // one of two values 40 MB apart from run to run.
    fx = std::make_unique<ServeFixture>(journal_dir, 1);
    HttpConn conn(fx->port.load());
    std::string body;
    if (conn.request("POST", "/v1/jobs", invdes_job_spec(pool[0], 2).dump(), body) != 202) {
      throw std::runtime_error("warm-up job submit failed: " + body);
    }
    const std::string id = io::json_parse(body).at("id").as_string();
    while (get_json(conn, "/v1/jobs/" + id).at("state").as_string() != "done") {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kPollMs));
    }
    setups.push_back((now_ms() - t0) / 1000.0);
  }

  HttpConn conn(fx->port.load());
  const std::string metrics_before = get_text(conn, "/v1/metrics");
  std::vector<double> job_ms;
  double journal_bytes = 0.0, journal_steps = 0.0;
  double factorizations = 0.0, solves = 0.0;
  const double start = now_ms();
  for (std::size_t j = 0; j < jobs; ++j) {
    ++out.attempted;
    const double t0 = now_ms();
    const int jspan = spans.begin("client.job", std::to_string(seeds[j]));
    std::string body;
    if (conn.request("POST", "/v1/jobs", invdes_job_spec(seeds[j], kInvdesIterations).dump(),
                     body) != 202) {
      ++out.failed;
      out.error("job submit rejected: " + body);
      continue;
    }
    const std::string id = io::json_parse(body).at("id").as_string();
    const std::string journal = journal_dir + "/" + id + ".journal";
    io::JsonValue st;
    for (;;) {
      const int pspan = spans.begin("client.poll", id, jspan);
      st = get_json(conn, "/v1/jobs/" + id);
      spans.end(pspan);
      const std::string state = st.at("state").as_string();
      if (state == "done" || state == "failed" || state == "cancelled") break;
      struct stat sb{};
      if (::stat(journal.c_str(), &sb) == 0 && sb.st_size > 0) {
        const double step = num_or(st, "step");
        if (step > journal_steps) {
          journal_bytes = static_cast<double>(sb.st_size);
          journal_steps = step;
        }
      }
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kPollMs));
    }
    const double t1 = now_ms();
    spans.end(jspan);
    if (st.at("state").as_string() != "done") {
      ++out.failed;
      out.error("job " + id + " ended " + st.at("state").as_string());
      continue;
    }
    job_ms.push_back(t1 - t0);
    factorizations += num_or(st, "factorizations");
    solves += num_or(st, "solves");
    const io::JsonValue result = get_json(conn, "/v1/jobs/" + id + "/result");
    const double fom = result.at("result").at("fom").as_number();
    const double ref = reference.at(std::to_string(seeds[j])).as_number();
    if (!close_rel(fom, ref, 1e-6)) {
      ++out.failed;
      char msg[160];
      std::snprintf(msg, sizeof(msg), "job seed %u: fom %.17g, reference %.17g", seeds[j],
                    fom, ref);
      out.error(msg);
    }
  }
  out.wall_ms = now_ms() - start;
  out.metric("peak_rss_mb", peak_rss_mb());
  const io::JsonValue stats = get_json(conn, "/v1/stats");
  const std::string metrics_after = get_text(conn, "/v1/metrics");

  const double steps = static_cast<double>(job_ms.size()) * kInvdesIterations;
  out.metric("setup_s", median(setups));
  if (!job_ms.empty()) out.metric("latency_p50_ms", percentile(job_ms, 0.5));
  // Too few jobs in a run for a job p90 (10 samples beyond it): the p90 is
  // taken over the run's optimizer steps, from the server's jobs.step_ms
  // histogram.
  out.layer("bench.latency_p90_ms",
             window_percentile(metrics_before, metrics_after, "maps_jobs_step_ms", 0.9));
  out.metric("throughput_per_s", steps / (out.wall_ms / 1000.0));

  if (spans.enabled()) {
    replay_serve_stages(standard_replay_bodies(args.seed), nullptr, {}, spans, out);
    replay_compute_layers(args, spans, out);
    const double step_ms = out.layers["invdes.step_ms"];
    out.layer("jobs.overhead_ms_per_step",
              steps > 0 ? median(job_ms) / kInvdesIterations - step_ms : 0.0);
    out.layer("jobs.journal_bytes_per_step",
              journal_steps > 0 ? journal_bytes / journal_steps : 0.0);
    out.layer("solver.factorizations_per_op", steps > 0 ? factorizations / steps : 0.0);
    out.layer("solver.solves_per_op", steps > 0 ? solves / steps : 0.0);
    out.layer("solver.refine_iterations", num_or(stats, "solver_refine_iterations"));
  }
  fx.reset();
  return out;
}

double run_invdes_in_process(unsigned seed, SpanRecorder& spans) {
  io::JsonValue spec = invdes_job_spec(seed, kInvdesIterations);
  spec.as_object().erase("type");
  const io::InvDesConfig cfg = io::InvDesConfig::from_json(spec);
  devices::BuildOptions build;
  build.fidelity = cfg.fidelity;
  devices::DeviceProblem device = devices::make_device(cfg.device, build);
  io::apply_solver_settings(device, cfg.solver);
  param::DesignPipeline pipeline = devices::make_default_pipeline(device, cfg.device, cfg.pipeline);
  invdes::NumericalProvider provider(device);
  invdes::InvDesStepper stepper(pipeline, cfg.options,
                                invdes::make_initial_theta(device, invdes::InitKind::Random, cfg.seed));
  while (!stepper.done()) {
    ScopedSpan s(spans, "invdes.step", std::to_string(seed));
    (void)stepper.step(provider);
  }
  return stepper.finalize().fom;
}

void record_invdes_reference(const std::string& path) {
  io::JsonValue doc;
  doc["spec"] = invdes_job_spec(0, kInvdesIterations);
  io::JsonValue fom;
  SpanRecorder off(false);
  for (unsigned seed : invdes_seed_pool()) {
    fom[std::to_string(seed)] = run_invdes_in_process(seed, off);
  }
  doc["fom"] = fom;
  io::json_save(doc, path);
}

// --- datagen ---------------------------------------------------------------

namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

}  // namespace

PassResult run_datagen(const Args& args, SpanRecorder& spans) {
  PassResult out;
  const std::size_t batches = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(args.seconds * kDatagenPatternsPerSecond /
                                               kDatagenBatchPatterns)));
  const std::string name = "bending/random";
  auto merged_path = [&](std::size_t b) {
    return args.work_dir + "/datagen-" + std::to_string(b) + ".mapsd";
  };
  const std::string unsharded = args.work_dir + "/datagen-unsharded.mapsd";
  auto remove_shard_files = [](const std::string& output) {
    for (int i = 0; i < 2; ++i) {
      fs::remove(runtime::shard_part_path(output, i, 2));
      fs::remove(runtime::shard_manifest_path(output, i, 2));
      fs::remove(runtime::shard_journal_path(output, i, 2));
    }
  };

  // Set-up: device build and a 2-pattern warm-up generation, repeated.
  std::optional<devices::DeviceProblem> device;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    device.reset();
    const double t0 = now_ms();
    device.emplace(devices::make_device(devices::DeviceKind::Bend));
    data::SamplerOptions w;
    w.num_patterns = 2;
    w.seed = static_cast<unsigned>(args.seed) + 7777u;
    const data::PatternSet warm = data::sample_patterns(*device, devices::DeviceKind::Bend, w);
    runtime::DatagenOptions wo;
    wo.workers = kDatagenWorkers;
    wo.progress_every_s = 0;
    (void)runtime::generate_pipelined({{&*device, &warm, 1}}, name, wo);
    setups.push_back((now_ms() - t0) / 1000.0);
  }

  // Inputs: one pattern set per batch, from the seed.
  std::vector<data::PatternSet> sets;
  for (std::size_t b = 0; b < batches; ++b) {
    data::SamplerOptions so;
    so.strategy = data::SamplingStrategy::Random;
    so.num_patterns = kDatagenBatchPatterns;
    so.seed = static_cast<unsigned>(args.seed * 1000 + b);
    sets.push_back(data::sample_patterns(*device, devices::DeviceKind::Bend, so));
  }

  // Timed: per batch, two shards back to back, then the merge. Each merged
  // file is kept and checked after the timed work and the peak RSS read:
  // exact sample count, and byte-identity to an unsharded pipelined save of
  // the same patterns.
  std::vector<double> intervals;
  std::size_t samples = 0, patterns_done = 0;
  int factorizations = 0, solves = 0, refine = 0;
  std::vector<double> merge_ms;
  std::vector<std::size_t> batch_samples(batches, 0), merged(batches, 0);
  for (std::size_t b = 0; b < batches; ++b) {
    const std::vector<runtime::DatagenPhase> phases = {{&*device, &sets[b], 1}};
    const std::string output = merged_path(b);
    remove_shard_files(output);
    fs::remove(output);

    const double start = now_ms();
    for (int i = 0; i < 2; ++i) {
      const int sspan = spans.begin("datagen.shard", std::to_string(b) + "/" + std::to_string(i));
      runtime::DatagenOptions opts;
      opts.shard = {i, 2};
      opts.workers = kDatagenWorkers;
      opts.progress_every_s = 0;
      // Latency of one pipeline round: the time from one pattern's commit
      // to the commit kDatagenWorkers patterns later (one pattern per
      // worker). Single commit gaps are bimodal (in-order drains land
      // back to back), so their median is not a stable statistic.
      std::vector<double> commits = {now_ms()};
      opts.after_pattern = [&](std::size_t) {
        commits.push_back(now_ms());
        if (commits.size() > kDatagenWorkers) {
          intervals.push_back(commits.back() - commits[commits.size() - 1 - kDatagenWorkers]);
        }
      };
      const runtime::DatagenStats st = runtime::generate_sharded(phases, name, output, opts);
      batch_samples[b] += st.samples;
      factorizations += st.factorizations;
      solves += st.solves;
      refine += st.refine_iterations;
      spans.end(sspan);
    }
    const double m0 = now_ms();
    const int mspan = spans.begin("shard.merge", std::to_string(b));
    merged[b] = runtime::merge_shards(output, 2).size();
    spans.end(mspan);
    merge_ms.push_back(now_ms() - m0);
    out.wall_ms += now_ms() - start;
    out.attempted += sets[b].densities.size();
    samples += batch_samples[b];
    patterns_done += sets[b].densities.size();
    remove_shard_files(output);
  }
  out.metric("peak_rss_mb", peak_rss_mb());

  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t expected = sets[b].densities.size() * device->excitations.size();
    bool ok = batch_samples[b] == expected && merged[b] == expected;
    if (!ok) {
      out.error("batch " + std::to_string(b) + ": " + std::to_string(batch_samples[b]) +
                " samples (merged " + std::to_string(merged[b]) + "), expected " +
                std::to_string(expected));
    }
    runtime::DatagenOptions ro;
    ro.workers = kDatagenWorkers;
    ro.progress_every_s = 0;
    runtime::generate_pipelined({{&*device, &sets[b], 1}}, name, ro).save(unsharded);
    if (slurp(merged_path(b)) != slurp(unsharded)) {
      ok = false;
      out.error("batch " + std::to_string(b) + ": merged shards differ from the unsharded save");
    }
    if (!ok) out.failed += sets[b].densities.size();
    fs::remove(merged_path(b));
  }

  out.metric("setup_s", median(setups));
  out.metric("latency_p50_ms", percentile(intervals, 0.5));
  out.layer("bench.latency_p90_ms", percentile(intervals, 0.9));
  out.metric("throughput_per_s", static_cast<double>(samples) / (out.wall_ms / 1000.0));

  if (spans.enabled()) {
    replay_serve_stages(standard_replay_bodies(args.seed), nullptr, {}, spans, out);
    replay_compute_layers(args, spans, out);
    const double per_pattern = out.layers["datagen.prep_ms"] + out.layers["datagen.solve_ms"];
    out.layer("datagen.parallel_efficiency",
              static_cast<double>(patterns_done) * per_pattern / (kDatagenWorkers * out.wall_ms));
    out.layer("shard.merge_s", median(merge_ms) / 1000.0);
    out.layer("solver.factorizations_per_op", static_cast<double>(factorizations) / samples);
    out.layer("solver.solves_per_op", static_cast<double>(solves) / samples);
    out.layer("solver.refine_iterations", refine);
    // The plain reference generator on the first 24 patterns of batch 0.
    data::PatternSet sub = sets[0];
    sub.densities.resize(std::min<std::size_t>(24, sub.densities.size()));
    sub.ids.resize(sub.densities.size());
    const int rspan = spans.begin("datagen.reference");
    const std::size_t ref_samples = data::generate_dataset_reference(*device, sub).size();
    spans.end(rspan);
    out.layer("datagen.reference_samples_per_s",
              static_cast<double>(ref_samples) / (median_self_ms(spans, "datagen.reference") / 1000.0));
  }
  // Leave no dirty pages behind for the next run to write back.
  fs::remove(unsharded);
  ::sync();
  return out;
}

}  // namespace mapsbench
