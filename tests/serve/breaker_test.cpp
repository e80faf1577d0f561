// The serve engine's breaker board: one independent breaker per rung.
#include "serve/engine.h"

#include <gtest/gtest.h>

namespace malisim::serve {
namespace {

TEST(BreakerBoardTest, RungsAreIndependent) {
  fault::BreakerConfig config;
  config.failure_threshold = 1;
  config.open_cooldown = 1;
  BreakerBoard board(config);
  board.ForVariant(hpc::Variant::kOpenCLOpt).Allow();
  board.ForVariant(hpc::Variant::kOpenCLOpt).RecordFailure();
  EXPECT_EQ(board.ForVariant(hpc::Variant::kOpenCLOpt).state(),
            fault::BreakerState::kOpen);
  for (hpc::Variant v : {hpc::Variant::kSerial, hpc::Variant::kOpenMP,
                         hpc::Variant::kOpenCL, hpc::Variant::kHetero}) {
    EXPECT_EQ(board.ForVariant(v).state(), fault::BreakerState::kClosed)
        << hpc::VariantName(v);
  }
}

}  // namespace
}  // namespace malisim::serve
