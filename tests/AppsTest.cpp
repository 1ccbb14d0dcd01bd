//===-- tests/AppsTest.cpp - Application correctness ---------------------------===//
//
// For every paper app: the tuned (and GPU) schedules must produce output
// identical to the breadth-first schedule — the schedule can never change
// the meaning of the algorithm. Compiled-C legs honour
// HALIDE_DIFF_JIT_FLAGS, so CI can run them with sanitized generated code.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "apps/Apps.h"
#include "support/DiffTest.h"

#include <cstring>
#include <gtest/gtest.h>

using namespace halide;

namespace {

/// Allocates an output buffer matching the app's output signature.
RawBuffer makeOutput(const App &A, int W, int H,
                     std::shared_ptr<void> *Keep) {
  const Function &F = A.Output.function();
  Type T = F.outputType();
  int Dims = F.dimensions();
  int C = Dims >= 3 ? 3 : 1;
  int64_t Elems = int64_t(W) * H * C;
  auto Storage = std::make_shared<std::vector<uint8_t>>(
      size_t(Elems * T.bytes()), uint8_t(0));
  *Keep = Storage;
  RawBuffer Raw;
  Raw.Host = Storage->data();
  Raw.ElemType = T;
  Raw.Dimensions = Dims;
  Raw.Dim[0] = {0, W, 1};
  Raw.Dim[1] = {0, H, W};
  if (Dims >= 3)
    Raw.Dim[2] = {0, C, W * H};
  Raw.Owner = Storage;
  return Raw;
}

void expectSameOutput(App &A, const std::function<void()> &SchedA,
                      const std::function<void()> &SchedB, int W, int H,
                      const char *Label,
                      const Target &TA = diffJitTarget(),
                      const Target &TB = diffJitTarget()) {
  ParamBindings Inputs = A.MakeInputs(W, H);

  std::shared_ptr<void> KeepA, KeepB;
  RawBuffer OutA = makeOutput(A, W, H, &KeepA);
  RawBuffer OutB = makeOutput(A, W, H, &KeepB);

  SchedA();
  auto CA = Pipeline(A.Output).compile(TA);
  ParamBindings PA = Inputs;
  PA.bind(A.Output.name(), OutA);
  ASSERT_EQ(CA->run(PA), 0);

  SchedB();
  auto CB = Pipeline(A.Output).compile(TB);
  ParamBindings PB = Inputs;
  PB.bind(A.Output.name(), OutB);
  ASSERT_EQ(CB->run(PB), 0);

  int64_t Bytes = OutA.numElements() * OutA.ElemType.bytes();
  EXPECT_EQ(std::memcmp(OutA.Host, OutB.Host, size_t(Bytes)), 0)
      << A.Name << ": " << Label << " on " << TA.str() << " vs "
      << TB.str();
}

/// The store-versus-recompute schedules (inlined pyramids, stored
/// premultiply) must be bit-exact on every engine, not just compiled C.
void expectTunedMatchesOnAllEngines(App &A, int W, int H) {
  for (const Target &T : {Target::vm(), diffJitTarget()})
    expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleTuned, W, H,
                     "tuned vs breadth-first", T, T);
  // The tree-walking interpreter runs breadth-first ~40x slower than the
  // VM, which reproduces it bit for bit (ExecutionStatsParityTest). So
  // its leg runs only the tuned schedule, on a quarter-size frame, against
  // the VM's breadth-first output, to stay inside the test timeout under
  // sanitizers.
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleTuned, W / 2, H / 2,
                   "tuned vs breadth-first", Target::vm(),
                   Target::interpreter());
}

} // namespace

TEST(AppsTest, BlurTunedMatchesBreadthFirst) {
  App A = makeBlurApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleTuned, 128, 96,
                   "tuned vs breadth-first");
}

TEST(AppsTest, BlurGpuMatchesBreadthFirst) {
  App A = makeBlurApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleGpu, 128, 64,
                   "gpu vs breadth-first");
}

TEST(AppsTest, BilateralGridTunedMatchesBreadthFirst) {
  App A = makeBilateralGridApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleTuned, 128, 96,
                   "tuned vs breadth-first");
}

TEST(AppsTest, BilateralGridGpuMatchesBreadthFirst) {
  App A = makeBilateralGridApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleGpu, 128, 64,
                   "gpu vs breadth-first");
}

TEST(AppsTest, CameraPipeTunedMatchesBreadthFirst) {
  App A = makeCameraPipeApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleTuned, 128, 96,
                   "tuned vs breadth-first");
}

TEST(AppsTest, InterpolateTunedMatchesBreadthFirst) {
  App A = makeInterpolateApp();
  expectTunedMatchesOnAllEngines(A, 128, 96);
}

TEST(AppsTest, LocalLaplacianTunedMatchesBreadthFirst) {
  App A = makeLocalLaplacianApp(/*Levels=*/4);
  expectTunedMatchesOnAllEngines(A, 128, 96);
}

TEST(AppsTest, LocalLaplacianTunedStoresNoLaplacianPlanes) {
  // The tuned schedule's point is what it does not store: the Laplacian
  // pyramid of the K remapped images is inlined into the level select,
  // so only 2 of the K levels are evaluated per pixel. Re-materializing
  // those planes would keep the output bit-exact but show up here.
  App A = makeLocalLaplacianApp(/*Levels=*/3);
  const int W = 128, H = 96;
  auto Run = [&](const std::function<void()> &Sched) {
    Sched();
    ParamBindings P = A.MakeInputs(W, H);
    std::shared_ptr<void> Keep;
    P.bind(A.Output.name(), makeOutput(A, W, H, &Keep));
    ExecutionStats S;
    EXPECT_EQ(Pipeline(A.Output).compile(Target::vm())->run(P, &S), 0);
    return S;
  };
  ExecutionStats BreadthFirst = Run(A.ScheduleBreadthFirst);
  ExecutionStats Tuned = Run(A.ScheduleTuned);
  // Stage names may carry a uniquifying "$n" suffix when an earlier test
  // still holds same-named stages, so match by prefix.
  auto LaplacianStores = [](const ExecutionStats &S) {
    int64_t N = 0;
    for (const auto &[Buf, Count] : S.StoresPerBuffer)
      if (startsWith(Buf, "ll_lpyr") || startsWith(Buf, "ll_lup"))
        N += Count;
    return N;
  };
  EXPECT_GT(LaplacianStores(BreadthFirst), 0);
  EXPECT_EQ(LaplacianStores(Tuned), 0);
  EXPECT_LT(2 * Tuned.totalStores(), BreadthFirst.totalStores());
}

TEST(AppsTest, HistogramEqualizeTunedMatchesBreadthFirst) {
  App A = makeHistogramEqualizeApp();
  expectSameOutput(A, A.ScheduleBreadthFirst, A.ScheduleTuned, 128, 96,
                   "tuned vs breadth-first");
}

TEST(AppsTest, StageCountsMatchFigure6Shape) {
  // Figure 6 reports pipeline sizes; check ours have the right order of
  // magnitude and ranking.
  App Blur = makeBlurApp();
  App Bilateral = makeBilateralGridApp();
  App Camera = makeCameraPipeApp();
  App Interp = makeInterpolateApp();
  App LL = makeLocalLaplacianApp(8);
  auto Stages = [](const App &A) {
    return buildEnvironment(A.Output.function()).size();
  };
  EXPECT_EQ(Stages(Blur), 2u);
  EXPECT_EQ(Stages(Bilateral), 7u);
  EXPECT_GE(Stages(Camera), 14u);
  EXPECT_GE(Stages(Interp), 20u);
  EXPECT_GE(Stages(LL), 70u); // paper: 99 stages at 8 levels
  EXPECT_GT(Stages(LL), Stages(Interp));
  EXPECT_GT(Stages(Interp), Stages(Camera));
  EXPECT_GT(Stages(Camera), Stages(Bilateral));
}

TEST(AppsTest, StencilCountsArePositive) {
  App Blur = makeBlurApp();
  EXPECT_GE(countStencils(Blur.Output.function()), 1);
  App LL = makeLocalLaplacianApp(4);
  EXPECT_GE(countStencils(LL.Output.function()), 10);
}

TEST(AppsTest, HistogramEqualizeFlattensHistogram) {
  App A = makeHistogramEqualizeApp();
  A.ScheduleTuned();
  const int W = 128, H = 96;
  ParamBindings Params = A.MakeInputs(W, H);
  Buffer<uint8_t> Out(W, H);
  Params.bind(A.Output.name(), Out);
  auto CP = Pipeline(A.Output).compile(diffJitTarget());
  ASSERT_EQ(CP->run(Params), 0);
  int MinV = 255, MaxV = 0;
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X) {
      MinV = std::min<int>(MinV, Out(X, Y));
      MaxV = std::max<int>(MaxV, Out(X, Y));
    }
  // Equalization stretches the low-contrast input across the range.
  EXPECT_GT(MaxV - MinV, 150);
}
