#include "tensor/dtype.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace orinsim {
namespace {

TEST(DTypeTest, BytesAndNames) {
  EXPECT_DOUBLE_EQ(dtype_bytes(DType::kF32), 4.0);
  EXPECT_DOUBLE_EQ(dtype_bytes(DType::kF16), 2.0);
  EXPECT_DOUBLE_EQ(dtype_bytes(DType::kI8), 1.0);
  EXPECT_DOUBLE_EQ(dtype_bytes(DType::kI4), 0.5);
  EXPECT_EQ(dtype_name(DType::kI8), "INT8");
  EXPECT_EQ(parse_dtype("fp16"), DType::kF16);
  EXPECT_EQ(parse_dtype("INT4"), DType::kI4);
  EXPECT_THROW(parse_dtype("fp8"), ContractViolation);
}

}  // namespace
}  // namespace orinsim
