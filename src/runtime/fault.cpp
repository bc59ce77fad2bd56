#include "runtime/fault.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

namespace maps::runtime::fault {

namespace {

// Every fault::point() name compiled into src/. A spec naming anything else
// is rejected: a stale or misspelled name would arm nothing, and a chaos run
// would pass without exercising the fault it asked for.
constexpr std::string_view kPoints[] = {
    "solver.factorize", "solver.solve",    "solver.iterative", "batcher.run_batch",
    "registry.load",    "journal.append",  "journal.compact",  "manifest.save",
    "http.read",        "http.write",      "coalesce.attach",  "jobs.step",
    "jobs.journal",
};

enum class Action { Throw, Stall, Io };
enum class Trigger { Always, Nth, Every, Prob };

struct Point {
  Action action = Action::Throw;
  double stall_ms = 0.0;
  Trigger trigger = Trigger::Always;
  std::uint64_t n = 1;       // nth / every parameter
  double p = 1.0;            // prob parameter
  std::uint64_t lcg = 1;     // deterministic per-point PRNG state (seeded)
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, Point, std::less<>> points;
  std::atomic<int> armed{0};
};

std::vector<std::pair<std::string, Point>> parse_spec(const std::string& spec);

void apply_parsed(Registry& r, std::vector<std::pair<std::string, Point>> parsed) {
  std::lock_guard lk(r.mu);
  for (auto& [name, pt] : parsed) r.points[name] = std::move(pt);
  r.armed.store(static_cast<int>(r.points.size()), std::memory_order_relaxed);
}

Registry& registry() {
  static Registry r;
  // The MAPS_FAULTS arming must NOT run inside Registry's constructor via
  // arm_from_spec: arm_from_spec calls registry(), and re-entering a
  // function-static's initialization guard deadlocks. call_once after
  // construction arms directly instead.
  static std::once_flag env_once;
  std::call_once(env_once, [] {
    if (const char* env = std::getenv("MAPS_FAULTS")) {
      if (env[0] != '\0') apply_parsed(r, parse_spec(env));
    }
  });
  return r;
}

double parse_number(std::string_view text, std::string_view what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(text), &used);
    require(used == text.size(), "MAPS_FAULTS: trailing characters after number");
    return v;
  } catch (const MapsError&) {
    throw;
  } catch (const std::exception&) {
    throw MapsError("MAPS_FAULTS: '" + std::string(text) + "' is not a valid " +
                    std::string(what));
  }
}

Point parse_point(std::string_view entry, std::string_view body) {
  Point pt;
  // body = action[@trigger]
  std::string_view action = body;
  std::string_view trigger;
  if (const auto at = body.find('@'); at != std::string_view::npos) {
    action = body.substr(0, at);
    trigger = body.substr(at + 1);
  }

  if (action == "throw") {
    pt.action = Action::Throw;
  } else if (action == "io") {
    pt.action = Action::Io;
  } else if (action.rfind("stall:", 0) == 0) {
    pt.action = Action::Stall;
    pt.stall_ms = parse_number(action.substr(6), "stall duration (ms)");
    require(pt.stall_ms >= 0.0, "MAPS_FAULTS: stall duration must be >= 0");
  } else {
    throw MapsError("MAPS_FAULTS: unknown action in '" + std::string(entry) +
                    "' (throw | io | stall:<ms>)");
  }

  if (trigger.empty() || trigger == "always") {
    pt.trigger = Trigger::Always;
  } else if (trigger.rfind("nth:", 0) == 0) {
    pt.trigger = Trigger::Nth;
    const double n = parse_number(trigger.substr(4), "nth count");
    require(n >= 1.0, "MAPS_FAULTS: nth:<N> must be >= 1");
    pt.n = static_cast<std::uint64_t>(n);
  } else if (trigger.rfind("every:", 0) == 0) {
    pt.trigger = Trigger::Every;
    const double k = parse_number(trigger.substr(6), "every period");
    require(k >= 1.0, "MAPS_FAULTS: every:<K> must be >= 1");
    pt.n = static_cast<std::uint64_t>(k);
  } else if (trigger.rfind("p:", 0) == 0) {
    pt.trigger = Trigger::Prob;
    std::string_view rest = trigger.substr(2);
    std::string_view prob = rest;
    if (const auto comma = rest.find(','); comma != std::string_view::npos) {
      prob = rest.substr(0, comma);
      std::string_view seed = rest.substr(comma + 1);
      require(seed.rfind("seed:", 0) == 0,
              "MAPS_FAULTS: expected seed:<S> after p:<P>,");
      pt.lcg = static_cast<std::uint64_t>(parse_number(seed.substr(5), "seed"));
      if (pt.lcg == 0) pt.lcg = 1;
    }
    pt.p = parse_number(prob, "probability");
    require(pt.p >= 0.0 && pt.p <= 1.0, "MAPS_FAULTS: p:<P> must be in [0, 1]");
  } else {
    throw MapsError("MAPS_FAULTS: unknown trigger in '" + std::string(entry) +
                    "' (always | nth:<N> | every:<K> | p:<P>[,seed:<S>])");
  }
  return pt;
}

}  // namespace

bool armed() { return registry().armed.load(std::memory_order_relaxed) > 0; }

namespace {

// Parse the whole spec before touching the registry, so a malformed tail
// does not leave a half-armed configuration behind.
std::vector<std::pair<std::string, Point>> parse_spec(const std::string& spec) {
  std::vector<std::pair<std::string, Point>> parsed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t semi = std::min(spec.find(';', pos), spec.size());
    std::string_view entry(spec.data() + pos, semi - pos);
    pos = semi + 1;
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    require(eq != std::string_view::npos && eq > 0 && eq + 1 < entry.size(),
            "MAPS_FAULTS: entry '" + std::string(entry) +
                "' is not <name>=<action>[@<trigger>]");
    const std::string_view name = entry.substr(0, eq);
    require(std::find(std::begin(kPoints), std::end(kPoints), name) != std::end(kPoints),
            "MAPS_FAULTS: unknown fault point '" + std::string(name) +
                "' (the registered names are listed in runtime/fault.cpp)");
    parsed.emplace_back(std::string(name), parse_point(entry, entry.substr(eq + 1)));
  }
  return parsed;
}

}  // namespace

void arm_from_spec(const std::string& spec) {
  auto parsed = parse_spec(spec);
  apply_parsed(registry(), std::move(parsed));
}

void disarm_all() {
  Registry& r = registry();
  std::lock_guard lk(r.mu);
  r.points.clear();
  r.armed.store(0, std::memory_order_relaxed);
}

bool point(std::string_view name) {
  Registry& r = registry();
  if (r.armed.load(std::memory_order_relaxed) == 0) return false;

  Action action;
  double stall_ms = 0.0;
  {
    std::lock_guard lk(r.mu);
    const auto it = r.points.find(name);
    if (it == r.points.end()) return false;
    Point& pt = it->second;
    ++pt.hits;
    bool fire = false;
    switch (pt.trigger) {
      case Trigger::Always: fire = true; break;
      case Trigger::Nth: fire = pt.hits == pt.n; break;
      case Trigger::Every: fire = pt.hits % pt.n == 0; break;
      case Trigger::Prob: {
        // Deterministic per-point stream: same seed + same hit order =>
        // same firing sequence (MMIX LCG constants).
        pt.lcg = pt.lcg * 6364136223846793005ull + 1442695040888963407ull;
        const double u =
            static_cast<double>(pt.lcg >> 11) / static_cast<double>(1ull << 53);
        fire = u < pt.p;
        break;
      }
    }
    if (!fire) return false;
    ++pt.fires;
    action = pt.action;
    stall_ms = pt.stall_ms;
  }

  switch (action) {
    case Action::Throw:
      throw FaultInjected("fault injected at '" + std::string(name) + "'");
    case Action::Stall:
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(stall_ms));
      return false;
    case Action::Io:
      return true;
  }
  return false;
}

std::vector<PointStats> stats() {
  Registry& r = registry();
  std::lock_guard lk(r.mu);
  std::vector<PointStats> out;
  out.reserve(r.points.size());
  for (const auto& [name, pt] : r.points) {
    out.push_back(PointStats{name, pt.hits, pt.fires});
  }
  return out;
}

std::uint64_t total_fires() {
  Registry& r = registry();
  std::lock_guard lk(r.mu);
  std::uint64_t total = 0;
  for (const auto& [name, pt] : r.points) total += pt.fires;
  return total;
}

}  // namespace maps::runtime::fault
