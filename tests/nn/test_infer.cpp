// The serving contract of Module::infer: bit-identical to forward(), batch
// rows independent (stacked == per-sample), and safe to run concurrently on
// one shared model instance.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "math/rng.hpp"
#include "nn/infer.hpp"
#include "nn/models.hpp"

namespace {

using namespace maps;

nn::Tensor random_input(std::vector<index_t> shape, unsigned seed) {
  math::Rng rng(seed);
  nn::Tensor x(std::move(shape));
  for (index_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

bool bit_identical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

nn::ModelConfig small_config(nn::ModelKind kind) {
  nn::ModelConfig cfg;
  cfg.kind = kind;
  cfg.in_channels = 4;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.modes = 2;
  cfg.depth = 1;
  cfg.n_outputs = 3;
  return cfg;
}

/// The served surrogate: FNO at 64x64, width 12, 16 modes.
nn::ModelConfig served_config() {
  nn::ModelConfig cfg = small_config(nn::ModelKind::Fno);
  cfg.width = 12;
  cfg.modes = 16;
  cfg.depth = 3;
  return cfg;
}

TEST(Infer, MatchesForwardBitIdenticalAcrossModels) {
  std::vector<std::pair<nn::ModelConfig, index_t>> inputs;
  for (const auto kind : {nn::ModelKind::Fno, nn::ModelKind::Ffno,
                          nn::ModelKind::UNetKind, nn::ModelKind::NeurOLight,
                          nn::ModelKind::SParam}) {
    inputs.emplace_back(small_config(kind), 16);
  }
  inputs.emplace_back(served_config(), 64);
  for (const auto& [cfg, grid] : inputs) {
    const auto model = nn::make_model(cfg);
    const nn::Tensor x = random_input({2, 4, grid, grid}, 7);
    const nn::Tensor via_forward = model->forward(x);
    const nn::Tensor via_infer = model->infer(x);
    EXPECT_TRUE(bit_identical(via_forward, via_infer))
        << "model " << nn::model_name(cfg.kind) << " at " << grid;
  }
}

TEST(Infer, StackedBatchMatchesPerSample) {
  for (const auto& [cfg, grid] : {std::pair{small_config(nn::ModelKind::Fno), index_t{16}},
                                  std::pair{served_config(), index_t{64}}}) {
    const auto model = nn::make_model(cfg);
    std::vector<nn::Tensor> inputs;
    for (unsigned k = 0; k < 5; ++k) {
      inputs.push_back(random_input({1, 4, grid, grid}, 100 + k));
    }
    const auto batched = nn::infer_batch(*model, inputs);
    ASSERT_EQ(batched.size(), inputs.size());
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const nn::Tensor single = model->infer(inputs[k]);
      EXPECT_TRUE(bit_identical(batched[k], single)) << "sample " << k << " at " << grid;
    }
  }
}

TEST(Infer, StackSplitRoundTrip) {
  std::vector<nn::Tensor> inputs;
  for (unsigned k = 0; k < 3; ++k) inputs.push_back(random_input({1, 2, 4, 4}, k));
  const nn::Tensor stacked = nn::stack_batch(inputs);
  EXPECT_EQ(stacked.size(0), 3);
  const auto split = nn::split_batch(stacked);
  ASSERT_EQ(split.size(), inputs.size());
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_TRUE(bit_identical(split[k], inputs[k]));
  }
}

TEST(Infer, ConcurrentInfersOnSharedModelAgree) {
  const auto model = nn::make_model(small_config(nn::ModelKind::Fno));
  const nn::Tensor x = random_input({1, 4, 16, 16}, 3);
  const nn::Tensor reference = model->infer(x);

  constexpr int kThreads = 4;
  constexpr int kReps = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kReps; ++r) {
        if (!bit_identical(model->infer(x), reference)) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

TEST(Infer, SequentialStillSupportsTraining) {
  // infer() must not disturb forward/backward state: a forward, an infer,
  // then a backward must behave as if the infer never happened.
  const auto a = nn::make_model(small_config(nn::ModelKind::Fno));
  const auto b = nn::make_model(small_config(nn::ModelKind::Fno));
  const nn::Tensor x = random_input({1, 4, 16, 16}, 9);
  const nn::Tensor g = random_input({1, 2, 16, 16}, 10);

  (void)a->forward(x);
  const nn::Tensor ga = a->backward(g);

  (void)b->forward(x);
  (void)b->infer(random_input({1, 4, 16, 16}, 11));  // interleaved inference
  const nn::Tensor gb = b->backward(g);
  EXPECT_TRUE(bit_identical(ga, gb));
}

}  // namespace
