//===-- tests/VectorSimdTest.cpp - SIMD execution + vector correctness ----===//
//
// Pins the SIMD execution layer introduced for vectorize():
//  - CodeGenC emits native GCC vector types and restrict buffer pointers.
//  - Reversed (stride -1) ramps classify as dense load/store + lane
//    reverse, not gathers/scatters.
//  - Stride-2 ramps (downsampling) classify as two dense loads + one
//    shuffle that stay inside the lanes' own range, and execute correctly
//    when the last lane reads a buffer's final element.
//  - Clamped-boundary stencil loads (off + clamp(ramp, lo, hi), the shape
//    In(clamp(x+dx, 0, W-1), y) lowers to) classify as a clamped dense
//    load — memcpy in the interior, per-lane clamp at the edges — not a
//    gather, and execute correctly at both.
//  - The VM compiles unit-stride ramp accesses to the dense lane-group
//    memory opcodes.
//  - Vector floor div/mod semantics agree bit for bit across the
//    interpreter, the VM, and compiled C, including negative numerators
//    and denominators and division by zero inside Ramp'd expressions.
//  - Vectorizing a split whose extent is not divisible by the factor is
//    safe on internal (padded) funcs and rejected on outputs — at
//    lowering time when the bound is static, at run time otherwise.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGenC.h"
#include "codegen/Interpreter.h"
#include "codegen/Jit.h"
#include "lang/ImageParam.h"
#include "lang/Pipeline.h"
#include "support/DiffTest.h"
#include "vm/VmCompiler.h"
#include "vm/VmExecutable.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace halide;

TEST(VectorSimdTest, NativeVectorTypesAndRestrictPointers) {
  ImageParam In(Float(32), 2, "vs_in");
  Var x("x"), y("y");
  Func F("vs_simd");
  F(x, y) = In(clamp(x, 0, In.width() - 1), clamp(y, 0, In.height() - 1)) *
                2.0f +
            1.0f;
  F.vectorize(x, 8);
  std::string Source = codegenC(lower(F.function()), "test_fn");
  // 8 x f32 is a native 32-byte vector, not the struct fallback.
  EXPECT_NE(Source.find("typedef float hl_f32x8 "
                        "__attribute__((vector_size(32)))"),
            std::string::npos);
  EXPECT_EQ(Source.find("typedef struct hl_f32x8"), std::string::npos);
  // Buffer pointers carry restrict so the C compiler can keep vector
  // temporaries live across the dense load/store helpers.
  EXPECT_NE(Source.find("*restrict"), std::string::npos);
}

TEST(VectorSimdTest, NonPowerOfTwoLanesFallBackToStruct) {
  Var x("x");
  Func F("vs_odd");
  F(x) = x * 2 + 1;
  F.bound(x, 0, 12).vectorize(x, 6); // 6 lanes: no native GCC vector
  std::string Source = codegenC(lower(F.function()), "test_fn");
  EXPECT_NE(Source.find("typedef struct hl_i32x6"), std::string::npos);
  EXPECT_EQ(Source.find("hl_i32x6 __attribute__"), std::string::npos);
}

TEST(VectorSimdTest, ReversedRampIsDenseLoadPlusLaneReverse) {
  Var x("x");
  Func Src("vr_src"), F("vr_out");
  Src(x) = x * 3 + 1;
  Src.computeRoot();
  // "127 - x" is a mirrored index: Broadcast - Ramp folds to a stride -1
  // ramp, which must take the dense-reversed path, not a gather.
  F(x) = Src(127 - Expr(x)) + Src(x);
  F.vectorize(x, 8);
  std::string Source = codegenC(lower(F.function()), "test_fn");
  EXPECT_NE(Source.find("_load_rev(&"), std::string::npos);
  EXPECT_EQ(Source.find("_gather"), std::string::npos);
  EXPECT_EQ(Source.find("_load_strided"), std::string::npos);
}

TEST(VectorSimdTest, ReversedRampExecutesCorrectlyOnAllBackends) {
  const int N = 128;
  Var x("x");
  Func Src("vrx_src"), F("vrx_out");
  Src(x) = x * 3 + 1;
  Src.computeRoot();
  F(x) = Src(127 - Expr(x)) + Src(x);
  F.vectorize(x, 8);
  LoweredPipeline LP = lower(F.function());

  Buffer<int32_t> FromInterp(N), FromVm(N), FromJit(N);
  {
    ParamBindings P;
    P.bind(F.name(), FromInterp);
    interpret(LP, P);
  }
  {
    ParamBindings P;
    P.bind(F.name(), FromVm);
    ASSERT_EQ(vmCompile(LP, Target::vm())->run(P), 0);
  }
  {
    ParamBindings P;
    P.bind(F.name(), FromJit);
    ASSERT_EQ(jitCompile(LP, diffJitTarget())->run(P), 0);
  }
  for (int X = 0; X < N; ++X) {
    int32_t Want = ((127 - X) * 3 + 1) + (X * 3 + 1);
    ASSERT_EQ(FromInterp(X), Want) << "interp at " << X;
    ASSERT_EQ(FromVm(X), Want) << "vm at " << X;
    ASSERT_EQ(FromJit(X), Want) << "jit at " << X;
  }
}

/// f(x) = src(2x) + src(2x+1): the downsample-by-2 access of every pyramid
/// stage. Both taps are constant stride-2 ramps.
Func stride2Downsample(ImageParam Src, const std::string &Name) {
  Var x("x");
  Func F(Name);
  F(x) = Src(2 * x) + Src(2 * x + 1);
  F.vectorize(x, 8);
  return F;
}

TEST(VectorSimdTest, Stride2RampIsTwoDenseLoadsPlusShuffle) {
  ImageParam Src(Int(32), 1, "s2_src");
  Func F = stride2Downsample(Src, "s2_out");
  std::string Source = codegenC(lower(F.function()), "test_fn");
  EXPECT_NE(Source.find("_load_s2(&"), std::string::npos);
  EXPECT_NE(Source.find("__builtin_shuffle(r, hi, ("), std::string::npos);
  EXPECT_NE(Source.find("){0, 2, 4, 6, 9, 11, 13, 15});"), std::string::npos);
  EXPECT_EQ(Source.find("_load_strided"), std::string::npos);
  EXPECT_EQ(Source.find("_gather"), std::string::npos);
}

TEST(VectorSimdTest, Stride2RampExecutesCorrectlyOnAllBackends) {
  // The source holds exactly 2N elements, so the last lane group's
  // src(2x+1) tap reads the buffer's final element: the shuffle form's
  // second dense load must end there, not one lane group past it.
  const int N = 64;
  ImageParam Src(Int(32), 1, "s2x_src");
  Func F = stride2Downsample(Src, "s2x_out");
  LoweredPipeline LP = lower(F.function());

  Buffer<int32_t> Input(2 * N);
  Input.fill([](int X) { return X * X - 7 * X; });
  ParamBindings Params;
  Params.bind(Src.name(), Input);

  Buffer<int32_t> FromInterp(N), FromVm(N), FromJit(N);
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromInterp);
    interpret(LP, P);
  }
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromVm);
    ASSERT_EQ(vmCompile(LP, Target::vm())->run(P), 0);
  }
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromJit);
    ASSERT_EQ(jitCompile(LP, diffJitTarget())->run(P), 0);
  }
  for (int X = 0; X < N; ++X) {
    int32_t Want = Input(2 * X) + Input(2 * X + 1);
    ASSERT_EQ(FromInterp(X), Want) << "interp at " << X;
    ASSERT_EQ(FromVm(X), Want) << "vm at " << X;
    ASSERT_EQ(FromJit(X), Want) << "jit at " << X;
  }
}

TEST(VectorSimdTest, ReversedRampStoreEmitsDenseReverseHelper) {
  // No scheduling path produces a reversed store from a pure definition
  // (pure LHS indices are always forward), so drive the emitter directly:
  // a Store whose index is a stride -1 ramp must use the dense reversed
  // store helper rather than a scatter.
  LoweredPipeline LP;
  LP.Name = "revstore";
  LP.Buffers.push_back({"out", Int(32), 1, true});
  Expr Value = Ramp::make(IntImm::make(Int(32), 0), IntImm::make(Int(32), 2),
                          8);
  Expr Index = Ramp::make(IntImm::make(Int(32), 7), IntImm::make(Int(32), -1),
                          8);
  LP.Body = Store::make("out", Value, Index);
  std::string Source = codegenC(LP, "test_fn");
  EXPECT_NE(Source.find("_store_rev(&"), std::string::npos);
  EXPECT_EQ(Source.find("_scatter"), std::string::npos);
}

TEST(VectorSimdTest, ClampedRampStencilIsDenseClampedLoadNotGather) {
  ImageParam In(UInt(8), 2, "vcl_in");
  Var x("x"), y("y");
  Func F("vcl_out");
  // The standard clamped-boundary stencil: each tap's x index lowers to
  // off + clamp(ramp(base, 1, 8), 0, W-1). That must classify as the
  // clamped dense load (memcpy when the whole lane group is interior),
  // never a per-lane gather.
  auto InC = [&](Expr X) {
    return cast(Int(32), In(clamp(X, 0, In.width() - 1), y));
  };
  F(x, y) = InC(x - 1) + InC(x) * 2 + InC(x + 1);
  F.vectorize(x, 8);
  std::string Source = codegenC(lower(F.function()), "test_fn");
  EXPECT_NE(Source.find("_load_clamped("), std::string::npos);
  EXPECT_EQ(Source.find("_gather"), std::string::npos);
}

TEST(VectorSimdTest, ClampedRampExecutesCorrectlyAtBoundaries) {
  // W = 64 is a multiple of the lane count, so the first and last lane
  // groups hold clamped (slow-path) lanes while every interior group
  // takes the dense memcpy fast path; both must match the interpreter.
  const int W = 64, H = 4;
  ImageParam In(UInt(8), 2, "vclx_in");
  Var x("x"), y("y");
  Func F("vclx_out");
  auto InC = [&](Expr X) {
    return cast(Int(32), In(clamp(X, 0, In.width() - 1), y));
  };
  F(x, y) = InC(x - 1) + InC(x) * 2 + InC(x + 1);
  F.vectorize(x, 8);
  LoweredPipeline LP = lower(F.function());

  Buffer<uint8_t> Input(W, H);
  Input.fill([](int X, int Y) { return uint8_t((X * 7 + Y * 31) % 251); });
  ParamBindings Params;
  Params.bind("vclx_in", Input);

  Buffer<int32_t> FromInterp(W, H), FromVm(W, H), FromJit(W, H);
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromInterp);
    interpret(LP, P);
  }
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromVm);
    ASSERT_EQ(vmCompile(LP, Target::vm())->run(P), 0);
  }
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromJit);
    ASSERT_EQ(jitCompile(LP, diffJitTarget())->run(P), 0);
  }
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X) {
      auto At = [&](int I) {
        return int32_t(Input(std::clamp(I, 0, W - 1), Y));
      };
      int32_t Want = At(X - 1) + At(X) * 2 + At(X + 1);
      ASSERT_EQ(FromInterp(X, Y), Want) << "interp at (" << X << "," << Y << ")";
      ASSERT_EQ(FromVm(X, Y), Want) << "vm at (" << X << "," << Y << ")";
      ASSERT_EQ(FromJit(X, Y), Want) << "jit at (" << X << "," << Y << ")";
    }
}

TEST(VectorSimdTest, VmCompilesUnitStrideRampsToDenseOps) {
  Var x("x");
  Func Src("vmdense_src"), F("vmdense_out");
  Src(x) = x + 7;
  Src.computeRoot().vectorize(x, 8);
  F(x) = Src(x) * 2;
  F.vectorize(x, 8);
  auto Exe = vmCompile(lower(F.function()), Target::vm());
  std::string Listing = Exe->program().disassemble();
  EXPECT_NE(Listing.find("load.dense"), std::string::npos);
  EXPECT_NE(Listing.find("store.dense"), std::string::npos);

  const int N = 64;
  Buffer<int32_t> FromVm(N), FromInterp(N);
  LoweredPipeline LP = lower(F.function());
  {
    ParamBindings P;
    P.bind(F.name(), FromVm);
    ASSERT_EQ(vmCompile(LP, Target::vm())->run(P), 0);
  }
  {
    ParamBindings P;
    P.bind(F.name(), FromInterp);
    interpret(LP, P);
  }
  for (int X = 0; X < N; ++X)
    ASSERT_EQ(FromVm(X), FromInterp(X)) << "at " << X;
}

TEST(VectorSimdTest, VectorDivModFloorSemanticsParity) {
  // Floor division and floor remainder inside Ramp'd vector expressions,
  // over negative numerators AND negative denominators, with division by
  // zero (defined as 0) in some lanes. All three backends must agree bit
  // for bit; any divergence is a backend bug.
  ImageParam In(Int(32), 2, "vdm_in");
  Var x("x"), y("y");
  Func F("vdm_out");
  Expr V = In(clamp(x, 0, In.width() - 1), clamp(y, 0, In.height() - 1));
  Expr Num = V - 37;                    // mixed signs, ramps along x
  Expr DenB = Expr(y) % 7 - 3;          // broadcast denominator, -3..3 (has 0)
  Expr DenR = (Expr(x) + Expr(y)) % 5 - 2; // ramp denominator, -2..2 (has 0)
  F(x, y) = Num / DenB + Num % DenB * 100 + Num / DenR * 10000 +
            Num % DenR * 1000000 +
            cast(Int(32), cast(Int(16), Num * 5) / cast(Int(16), DenR)) +
            cast(Int(32),
                 cast(UInt(32), Expr(x) + 1) / cast(UInt(32), Expr(y) % 4) +
                     cast(UInt(32), Expr(x) + 3) % cast(UInt(32), 6));
  F.vectorize(x, 8);

  const int W = 64, H = 16;
  Buffer<int32_t> Input(W, H);
  Input.fill([](int X, int Y) { return X * 7 + Y * 13 - 60; });
  ParamBindings Params;
  Params.bind("vdm_in", Input);

  LoweredPipeline LP = lower(F.function());
  Buffer<int32_t> FromInterp(W, H), FromVm(W, H), FromJit(W, H);
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromInterp);
    interpret(LP, P);
  }
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromVm);
    ASSERT_EQ(vmCompile(LP, Target::vm())->run(P), 0);
  }
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromJit);
    ASSERT_EQ(jitCompile(LP, diffJitTarget())->run(P), 0);
  }
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X) {
      ASSERT_EQ(FromInterp(X, Y), FromVm(X, Y))
          << "interp vs vm at (" << X << "," << Y << ")";
      ASSERT_EQ(FromInterp(X, Y), FromJit(X, Y))
          << "interp vs jit at (" << X << "," << Y << ")";
    }
}

TEST(VectorSimdTest, NonDivisibleVectorizedInternalUpdateStageIsSafe) {
  // Histogram-style pipeline: the init stage of the histogram is
  // vectorized by 8 over extent 100 (rounds up to 104). The histogram is
  // an internal stage, so its allocation is padded to the rounded extent
  // and the update stage still walks exactly [0, 100) — every backend
  // must produce the exact counts.
  ImageParam In(UInt(8), 1, "nds_in");
  Var i("i");
  Func Hist("nds_hist"), Out("nds_out");
  RDom R(0, In.width(), "nds_r");
  Hist(i) = cast(UInt(32), 0);
  Hist(clamp(cast(Int(32), In(R.x)), 0, 99)) += cast(UInt(32), 1);
  Hist.computeRoot().bound(i, 0, 100).vectorize(i, 8);
  Out(i) = Hist(i) + cast(UInt(32), 1);

  const int N = 237;
  Buffer<uint8_t> Input(N);
  Input.fill([](int X) { return (X * 31 + 7) % 100; });
  std::vector<uint32_t> Want(100, 1);
  for (int X = 0; X < N; ++X)
    Want[size_t((X * 31 + 7) % 100)] += 1;

  LoweredPipeline LP = lower(Out.function());
  ParamBindings Params;
  Params.bind("nds_in", Input);

  Buffer<uint32_t> FromInterp(100), FromVm(100), FromJit(100);
  {
    ParamBindings P = Params;
    P.bind(Out.name(), FromInterp);
    interpret(LP, P);
  }
  {
    ParamBindings P = Params;
    P.bind(Out.name(), FromVm);
    ASSERT_EQ(vmCompile(LP, Target::vm())->run(P), 0);
  }
  {
    ParamBindings P = Params;
    P.bind(Out.name(), FromJit);
    ASSERT_EQ(jitCompile(LP, diffJitTarget())->run(P), 0);
  }
  for (int X = 0; X < 100; ++X) {
    ASSERT_EQ(FromInterp(X), Want[size_t(X)]) << "interp at " << X;
    ASSERT_EQ(FromVm(X), Want[size_t(X)]) << "vm at " << X;
    ASSERT_EQ(FromJit(X), Want[size_t(X)]) << "jit at " << X;
  }
}

TEST(VectorSimdTest, NonDivisibleVectorizedOutputRejectedAtLoweringTime) {
  // With a static bound the round-up is provable at lowering time, so the
  // schedule is rejected with an error naming the stage instead of
  // deferring to a runtime abort.
  Var x("x");
  Func F("ndr_out");
  F(x) = x * 2;
  F.bound(x, 0, 100).vectorize(x, 8);
  EXPECT_DEATH(lower(F.function()), "round the written extent up");
}

TEST(VectorSimdTest, NonDivisibleVectorizedOutputAbortsAtRunTime) {
  // Without a static bound the same schedule must still refuse to write
  // out of bounds when the realized extent is not a factor multiple.
  Var x("x");
  Func F("ndrt_out");
  F(x) = x * 2;
  F.vectorize(x, 8);
  auto CP = jitCompile(lower(F.function()), diffJitTarget());
  Buffer<int32_t> Out(100);
  ParamBindings P;
  P.bind(F.name(), Out);
  EXPECT_DEATH(CP->run(P), "must be a multiple of the split factors");
}
