//===-- tests/ServingTest.cpp - Concurrent multi-frame serving --------------===//
//
// The pipeline-as-a-service layer: realizeAsync frames queued as async
// jobs on the work-stealing scheduler must be bit-identical (output and
// ExecutionStats) to sequential realizes, whether the in-flight frames
// share one pipeline or mix several; queued jobs run highest-priority
// first; the buffer pool makes steady-state serving allocation-free; the
// JIT leaves no scratch directories behind; and a compile stampede of N
// identical requests does one lowering and one backend compile while the
// other N-1 wait as cache hits.
//
//===----------------------------------------------------------------------===//

#include "lang/ImageParam.h"
#include "lang/Pipeline.h"
#include "runtime/BufferPool.h"
#include "runtime/TaskScheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <dirent.h>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace halide;

namespace {

/// A two-stage stencil pipeline with a parallel tiled schedule — enough
/// structure to exercise internal allocations, nested parallel loops, and
/// per-schedule lowering, while staying fast enough to serve many frames.
struct ServePipe {
  ImageParam In;
  Var x{"x"}, y{"y"};
  Func Stage, Out;

  explicit ServePipe(const std::string &Tag, int Variant = 0)
      : In(Float(32), 2, Tag + "_in"), Stage(Tag + "_stage"),
        Out(Tag + "_out") {
    auto InC = [&](Expr X, Expr Y) {
      return In(clamp(X, 0, In.width() - 1), clamp(Y, 0, In.height() - 1));
    };
    Stage(x, y) = InC(x - 1, y) + InC(x, y) * 2.0f + InC(x + 1, y);
    Out(x, y) = Stage(x, y - 1) + Stage(x, y + 1) + float(Variant);
    switch (Variant) {
    case 0:
      Stage.computeRoot().parallel(y);
      Out.parallel(y);
      break;
    case 1: {
      Var xo("xo"), yo("yo"), xi("xi"), yi("yi");
      Out.tile(x, y, xo, yo, xi, yi, 16, 8).parallel(yo);
      Stage.computeAt(Out, xo);
      break;
    }
    default:
      Stage.computeRoot();
      break;
    }
  }
};

Buffer<float> makeInput(int W, int H) {
  Buffer<float> In(W, H);
  In.fill([](int X, int Y) { return float((X * 7 + Y * 13) % 51) * 0.25f; });
  return In;
}

// Stats comparison rides on ExecutionStats::operator== (the determinism
// contract lives in runtime/ExecutionStats.h, shared with the differential
// harness and the parity tests).

/// Counts this process's JIT scratch directories (/tmp/hl_jit_<pid>_*):
/// other test processes JIT-compile concurrently under `ctest -j`.
int countJitTempDirs() {
  const std::string Prefix = "hl_jit_" + std::to_string(getpid()) + "_";
  int Count = 0;
  if (DIR *D = opendir("/tmp")) {
    while (const dirent *E = readdir(D))
      if (std::string(E->d_name).rfind(Prefix, 0) == 0)
        ++Count;
    closedir(D);
  }
  return Count;
}

} // namespace

TEST(ServingTest, ConcurrentFramesOfOnePipelineMatchSequential) {
  const int W = 64, H = 48, Frames = 6;
  ServePipe P("srv_one");
  Buffer<float> Input = makeInput(W, H);
  ParamBindings Params;
  Params.bind(P.In.name(), Input);
  Pipeline Pipe(P.Out);

  Buffer<float> Ref(W, H);
  ExecutionStats RefStats =
      Pipe.realize(Ref, Params, Target::vm());

  std::vector<Buffer<float>> Outs;
  for (int F = 0; F < Frames; ++F)
    Outs.emplace_back(W, H);
  std::vector<FrameFuture> Futures;
  for (int F = 0; F < Frames; ++F)
    Futures.push_back(
        Pipe.realizeAsync(Outs[size_t(F)], Params, Target::vm(), F % 3));
  for (int F = 0; F < Frames; ++F) {
    ExecutionStats S = Futures[size_t(F)].wait();
    EXPECT_TRUE(Futures[size_t(F)].done());
    EXPECT_EQ(S, RefStats) << "frame " << F;
    for (int Y = 0; Y < H; ++Y)
      for (int X = 0; X < W; ++X)
        ASSERT_EQ(Outs[size_t(F)](X, Y), Ref(X, Y))
            << "frame " << F << " at (" << X << "," << Y << ")";
  }
}

TEST(ServingTest, ConcurrentFramesOfDifferentPipelinesMatchSequential) {
  const int W = 48, H = 32, Variants = 3;
  Buffer<float> Input = makeInput(W, H);

  std::vector<std::unique_ptr<ServePipe>> Pipes;
  std::vector<Buffer<float>> Refs, Outs;
  std::vector<ExecutionStats> RefStats;
  std::vector<ParamBindings> Bindings;
  for (int V = 0; V < Variants; ++V) {
    Pipes.push_back(std::make_unique<ServePipe>(
        "srv_mix" + std::to_string(V), V));
    ParamBindings PB;
    PB.bind(Pipes.back()->In.name(), Input);
    Bindings.push_back(PB);
    Refs.emplace_back(W, H);
    RefStats.push_back(Pipeline(Pipes.back()->Out)
                           .realize(Refs.back(), PB, Target::vm()));
    Outs.emplace_back(W, H);
  }

  // All three pipelines' frames in flight at once, mixed priorities.
  std::vector<FrameFuture> Futures;
  for (int V = 0; V < Variants; ++V)
    Futures.push_back(Pipeline(Pipes[size_t(V)]->Out)
                          .realizeAsync(Outs[size_t(V)],
                                        Bindings[size_t(V)], Target::vm(),
                                        (Variants - V) % 2));
  for (int V = 0; V < Variants; ++V) {
    ExecutionStats S = Futures[size_t(V)].wait();
    EXPECT_EQ(S, RefStats[size_t(V)]) << "variant " << V;
    for (int Y = 0; Y < H; ++Y)
      for (int X = 0; X < W; ++X)
        ASSERT_EQ(Outs[size_t(V)](X, Y), Refs[size_t(V)](X, Y))
            << "variant " << V << " at (" << X << "," << Y << ")";
  }
}

TEST(ServingTest, SteadyStateServingAllocatesNothingFresh) {
  const int W = 64, H = 48;
  ServePipe P("srv_pool");
  Buffer<float> Input = makeInput(W, H);
  ParamBindings Params;
  Params.bind(P.In.name(), Input);
  Pipeline Pipe(P.Out);
  Buffer<float> Out(W, H);

  // Warm up: compile, and let the pool learn this frame shape's blocks.
  for (int F = 0; F < 3; ++F)
    Pipe.realize(Out, Params, Target::vm());

  const BufferPoolStats Before = bufferPoolStats();
  for (int F = 0; F < 8; ++F)
    Pipe.realize(Out, Params, Target::vm());
  const BufferPoolStats After = bufferPoolStats();

  // Every internal allocation of the steady-state frames was served from
  // the pool: zero fresh system allocations, and the hits prove the pool
  // (not the absence of allocations) is what made that true.
  EXPECT_EQ(After.FreshAllocations - Before.FreshAllocations, 0);
  EXPECT_GT(After.PoolHits - Before.PoolHits, 0);
}

TEST(ServingTest, QueuedJobsRunHighestPriorityFirstThenFifo) {
  // On a one-thread pool there are no workers, so nothing runs until the
  // first wait() starts helping — which makes the pickup order exactly
  // observable: priority descending, submission order within a priority.
  const int Before = taskSchedulerThreads();
  setTaskSchedulerThreads(1);
  std::mutex M;
  std::vector<int> Order;
  auto note = [&](int Id) {
    std::lock_guard<std::mutex> Lock(M);
    Order.push_back(Id);
  };
  AsyncJob A = submitAsyncJob([&] { note(0); }, 0);
  AsyncJob B = submitAsyncJob([&] { note(1); }, 5);
  AsyncJob C = submitAsyncJob([&] { note(2); }, 5);
  AsyncJob D = submitAsyncJob([&] { note(3); }, -1);
  EXPECT_TRUE(A.valid());
  A.wait();
  B.wait();
  C.wait();
  D.wait();
  EXPECT_TRUE(A.done() && B.done() && C.done() && D.done());
  ASSERT_EQ(Order.size(), 4u);
  EXPECT_EQ(Order[0], 1); // highest priority first
  EXPECT_EQ(Order[1], 2); // FIFO among equal priorities
  EXPECT_EQ(Order[2], 0);
  EXPECT_EQ(Order[3], 3); // lowest priority last
  setTaskSchedulerThreads(Before);
}

TEST(ServingTest, ResizeDrainsQueuedAsyncJobs) {
  // A resize must execute (not orphan) jobs still sitting in the queue —
  // on a one-thread pool there is nobody else to run them.
  const int Before = taskSchedulerThreads();
  setTaskSchedulerThreads(1);
  std::atomic<int> Ran{0};
  AsyncJob A = submitAsyncJob([&] { Ran.fetch_add(1); });
  AsyncJob B = submitAsyncJob([&] { Ran.fetch_add(1); });
  setTaskSchedulerThreads(2);
  EXPECT_EQ(Ran.load(), 2);
  EXPECT_TRUE(A.done() && B.done());
  setTaskSchedulerThreads(Before);
}

TEST(ServingTest, JitLeavesNoTempDirsBehind) {
  const int Before = countJitTempDirs();
  ServePipe P("srv_jit");
  Buffer<float> Input = makeInput(32, 24);
  ParamBindings Params;
  Params.bind(P.In.name(), Input);
  Buffer<float> Out(32, 24);
  Pipeline(P.Out).realize(Out, Params,
                          Target::jit().withJitFlags("-O0"));
  EXPECT_EQ(countJitTempDirs(), Before);
}

TEST(CompileStampedeTest, StampedeCompilesOnceAndHitsNMinusOne) {
  // N threads race to compile the same fingerprint on the (slow) JIT
  // backend: exactly one lowering and one host-compiler run may happen;
  // the other N-1 requests must wait on the entry's latch and count as
  // cache hits — and every thread must get a working executable.
  const int N = 8;
  ServePipe P("srv_stampede");
  Pipeline Pipe(P.Out);
  const Target T = Target::jit().withJitFlags("-O0");

  const CompileCounters Before = Pipeline::compileCounters();
  std::vector<std::shared_ptr<const Executable>> Exes;
  Exes.resize(size_t(N));
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      while (!Go.load())
        std::this_thread::yield();
      Exes[size_t(I)] = Pipe.compile(T);
    });
  Go.store(true);
  for (std::thread &Th : Threads)
    Th.join();

  const CompileCounters After = Pipeline::compileCounters();
  EXPECT_EQ(After.Lowerings - Before.Lowerings, 1);
  EXPECT_EQ(After.BackendCompiles - Before.BackendCompiles, 1);
  EXPECT_EQ(After.CacheHits - Before.CacheHits, N - 1);
  for (int I = 0; I < N; ++I) {
    ASSERT_NE(Exes[size_t(I)], nullptr) << "thread " << I;
    EXPECT_EQ(Exes[size_t(I)], Exes[0]) << "thread " << I;
  }

  // The artifact the stampede produced actually runs.
  Buffer<float> Input = makeInput(32, 24);
  ParamBindings Params;
  Params.bind(P.In.name(), Input);
  Buffer<float> Out(32, 24);
  Params.bind(P.Out.name(), Out);
  EXPECT_EQ(Exes[0]->run(Params), 0);
}

TEST(CompileStampedeTest, UnrelatedPipelinesCompileIndependently) {
  // Two different fingerprints from interleaved threads: each compiles
  // exactly once, and neither stampede's waiters block the other's
  // compile from completing (the latches are per-entry).
  const int PerPipe = 3;
  ServePipe A("srv_indep_a", 0), B("srv_indep_b", 1);
  Pipeline PipeA(A.Out), PipeB(B.Out);
  const Target T = Target::vm();

  const CompileCounters Before = Pipeline::compileCounters();
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (int I = 0; I < PerPipe; ++I) {
    Threads.emplace_back([&] {
      while (!Go.load())
        std::this_thread::yield();
      PipeA.compile(T);
    });
    Threads.emplace_back([&] {
      while (!Go.load())
        std::this_thread::yield();
      PipeB.compile(T);
    });
  }
  Go.store(true);
  for (std::thread &Th : Threads)
    Th.join();

  const CompileCounters After = Pipeline::compileCounters();
  EXPECT_EQ(After.Lowerings - Before.Lowerings, 2);
  EXPECT_EQ(After.BackendCompiles - Before.BackendCompiles, 2);
  EXPECT_EQ(After.CacheHits - Before.CacheHits, 2 * (PerPipe - 1));
}
