//===-- perfbench/perfbench.cpp - Repository benchmark program ------------===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// One benchmark over the five paper apps on the jit_c backend, with three
// workloads (README.md in this directory documents every metric):
//
//   fig7_steady   each app's tuned schedule compiled in set-up, then
//                 1536x1280 frames round-robin through Executable::run in
//                 a closed loop (the paper's Figure 7 measurement).
//   edit_compile  a schedule author's loop: for every app x {breadth_first,
//                 tuned} clear the compile cache, Pipeline::compile, run
//                 and check one 1536x1280 frame (time to first frame).
//   serve_mixed   an open loop: one generator thread submits 768x512
//                 frames of four apps through Pipeline::realizeAsync at a
//                 fixed seeded arrival schedule with mixed priorities.
//
// Every frame is checked. The first frame of each executable is compared
// with the app's hand-written reference (exact for integers, 1e-5 for
// floats, 1 output unit for local_laplacian, ReferenceMargin excluded);
// every later frame of the same executable must be bit-identical to it.
// Output buffers are poisoned before each frame so a frame that writes
// nothing cannot pass.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with benchmark-side spans around calls into each layer's public
// entry points (lower, codegenC, makeExecutable, Executable::run,
// Pipeline::compile, Pipeline::realizeAsync) and prints per-layer metrics.
// The spans are written to .bench_out/ under the working directory.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//                  [--tiny] [--corrupt-pixel] [--crash-after <frames>]
//
// The last stdout line is the JSON result; the line before it is the run
// manifest. Lines starting with "progress " carry running frame counts so
// the wrapper (run.py) can report a crashed run as failed.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "codegen/CodeGenC.h"
#include "ir/IRVisitor.h"
#include "observe/Profiler.h"
#include "runtime/BufferPool.h"
#include "runtime/TaskScheduler.h"
#include "support/DiffTest.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <random>
#include <sched.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <thread>
#include <tuple>
#include <vector>

using namespace halide;

namespace {

//===----------------------------------------------------------------------===//
// Fixed parameters. They are part of the benchmark definition: changing
// any of them changes what every recorded number means.
//===----------------------------------------------------------------------===//

constexpr int BigW = 1536, BigH = 1280;  // fig7_steady, edit_compile
constexpr int ServeW = 768, ServeH = 512; // serve_mixed
/// Offered rate of serve_mixed: about 60% of the seed's closed-loop
/// capacity for this mix on 4 threads, one frame at a time (blur 0.24,
/// bilateral_grid 5.7, camera_pipe 3.6, interpolate 14.3 ms per 768x512
/// frame, so about 170 frames/s for an equal mix).
constexpr double ServeRateFps = 100.0;
/// Goodput counts frames that complete within this limit of their due time.
constexpr double LatencyLimitMs = 50.0;
constexpr int MaxPoolThreads = 4;
/// Frames edit_compile runs from each fresh executable after the first.
constexpr int EditExtraFrames = 6;
/// Host-compiler flags the JIT uses (codegen/Jit.cpp); recorded in the
/// manifest, not passed anywhere.
constexpr const char *JitFlags = "-O3 -march=native -fno-math-errno";
/// Float rounding at local_laplacian's uint16 quantization step: its hand-
/// written float reference differs by exactly 1 on a few dozen interior
/// pixels at 1536x1280 on every engine and schedule (README.md).
constexpr double LocalLaplacianTolerance = 1.0;

/// Stages whose profiled self time is reported per app: those making up
/// at least 80% of the tuned schedule's self time at 1536x1280 on the seed
/// (at most 8 per app), largest first. A stage a later schedule removes
/// reads 0.
const std::map<std::string, std::vector<std::string>> ProfiledStages = {
    {"blur", {"blurx", "blur"}},
    {"bilateral_grid", {"bilateral_grid", "bg_blury", "bg_grid.update(0)"}},
    {"camera_pipe", {"cam_demosaic", "cam_corrected"}},
    {"interpolate", {"down1", "interp0", "down2"}},
    {"local_laplacian",
     {"ll_gpyr0", "ll_lup0", "ll_gpyr1", "ll_lup1", "ll_lpyr0"}},
};

const char *const ScheduleNames[2] = {"breadth_first", "tuned"};

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;
const Clock::time_point Epoch = Clock::now();

double nowS() {
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double median(const std::vector<double> &V) { return percentile(V, 50); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-12));
  return std::exp(LogSum / double(V.size()));
}

/// Timing samples by window of the run, then by pipeline ("app.schedule").
/// Closed loops use one window; serve_mixed uses one per second of
/// arrivals.
using Samples = std::map<int, std::map<std::string, std::vector<double>>>;

/// The median over windows of the geomean over pipelines of each
/// pipeline's \p P-th percentile. Taking percentiles per pipeline keeps
/// pipelines of very different cost from interleaving in one ranking, and
/// the median over windows keeps a burst of host noise in one second from
/// moving the whole run's figure.
double windowedPercentile(const Samples &S, double P) {
  std::vector<double> PerWindow;
  for (const auto &[Window, ByPipeline] : S) {
    std::vector<double> Ps;
    for (const auto &[Pipeline, V] : ByPipeline)
      Ps.push_back(percentile(V, P));
    PerWindow.push_back(geomean(Ps));
  }
  return median(PerWindow);
}

/// Every sample of one pipeline (or, with an empty name, of all of them).
std::vector<double> pooled(const Samples &S, const std::string &Pipeline) {
  std::vector<double> All;
  for (const auto &[Window, ByPipeline] : S)
    for (const auto &[Name, V] : ByPipeline)
      if (Pipeline.empty() || Name == Pipeline)
        All.insert(All.end(), V.begin(), V.end());
  return All;
}

/// Returns the buffer pool's blocks and freed heap memory to the system
/// between independent pipelines, outside every timed span, so that each
/// pipeline's first frames start from the same state and peak_rss_mb
/// measures the largest pipeline rather than what the seeded order left
/// behind.
void releaseFreedMemory() {
  clearBufferPool();
  malloc_trim(0);
}

double peakRssMb(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

int hostCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string firstLineOf(const char *Cmd) {
  std::string Line;
  if (FILE *P = popen(Cmd, "r")) {
    char Buf[256];
    if (fgets(Buf, sizeof(Buf), P))
      Line = Buf;
    pclose(P);
  }
  while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
    Line.pop_back();
  return Line.empty() ? "unknown" : Line;
}

/// A profiler stage name as a metric-name component: characters outside
/// [A-Za-z0-9_.-] become '_', trailing ones dropped ("g.update(0)" ->
/// "g.update_0").
std::string metricComponent(const std::string &S) {
  std::string Out;
  for (char C : S)
    Out += std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
                   C == '.' || C == '-'
               ? C
               : '_';
  while (!Out.empty() && Out.back() == '_')
    Out.pop_back();
  return Out;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

/// Numbers are printed with all their digits (%.17g round-trips a double).
std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// One set-up repetition instead of several (self-check scale).
  bool Tiny = false;
  /// Self-check: corrupt one interior value of every held first-frame
  /// copy, which both output gates must then count as failed.
  bool CorruptPixel = false;
  /// Self-check: abort the process after this many attempted frames.
  int64_t CrashAfter = -1;
};

//===----------------------------------------------------------------------===//
// Spans (traced runs only): recorded around calls into each layer from the
// benchmark's own thread, kept in memory, written at exit.
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  double Start = 0, End = 0;
  int Parent = -1;
  int64_t Request = 0; ///< the frame or pipeline this span serves
  double duration() const { return End - Start; }
};

class SpanRecorder {
public:
  bool enabled() const { return Enabled; }
  void enable() { Enabled = true; }

  int begin(const std::string &Name, int64_t Request) {
    if (!Enabled)
      return -1;
    Span S;
    S.Name = Name;
    S.Start = nowS();
    S.Parent = Open.empty() ? -1 : Open.back();
    S.Request = Request;
    Spans.push_back(S);
    Open.push_back(int(Spans.size()) - 1);
    return Open.back();
  }
  void end(int Id) {
    if (Id < 0)
      return;
    Spans[Id].End = nowS();
    Open.pop_back();
  }
  /// A span recorded after the fact (serve_mixed frames, timed from their
  /// due time to when the generator saw them complete).
  void add(const std::string &Name, double Start, double End,
           int64_t Request) {
    if (!Enabled)
      return;
    Span S;
    S.Name = Name;
    S.Start = Start;
    S.End = End;
    S.Parent = Open.empty() ? -1 : Open.back();
    S.Request = Request;
    Spans.push_back(S);
  }

  template <typename Fn>
  auto time(const std::string &Name, int64_t Request, Fn &&F) {
    int Id = begin(Name, Request);
    struct Closer {
      SpanRecorder *R;
      int Id;
      ~Closer() { R->end(Id); }
    } C{this, Id};
    return F();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Span duration minus the time its direct children cover (children of
  /// one thread's spans are sequential, so their durations add).
  double selfTime(int Id) const {
    double Self = Spans[Id].duration();
    for (const Span &S : Spans)
      if (S.Parent == Id)
        Self -= S.duration();
    return Self;
  }
  /// Sum of self times of every span named \p Name.
  double selfTotal(const std::string &Name) const {
    double Sum = 0;
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Spans[I].Name == Name)
        Sum += selfTime(int(I));
    return Sum;
  }
  double durationTotal(const std::string &Name) const {
    double Sum = 0;
    for (const Span &S : Spans)
      if (S.Name == Name)
        Sum += S.duration();
    return Sum;
  }

  void write(const std::string &Path, const std::string &RunId) const {
    std::ofstream Out(Path);
    Out << "{\"run\": \"" << jsonEscape(RunId) << "\", \"spans\": [\n";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out << "  {\"id\": " << I << ", \"name\": \"" << jsonEscape(S.Name)
          << "\", \"start_s\": " << num(S.Start) << ", \"end_s\": "
          << num(S.End) << ", \"parent\": " << S.Parent
          << ", \"request\": " << S.Request << ", \"self_s\": "
          << num(selfTime(int(I))) << "}" << (I + 1 < Spans.size() ? "," : "")
          << "\n";
    }
    Out << "]}\n";
  }

private:
  bool Enabled = false;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

//===----------------------------------------------------------------------===//
// Frame accounting and output checks
//===----------------------------------------------------------------------===//

/// Attempted/failed frame counts. Every frame the benchmark runs passes
/// through note(); a progress line lets the wrapper report a crash.
struct Tally {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  int64_t CrashAfter = -1;

  void note(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
    std::printf("progress %lld %lld\n", (long long)Attempted,
                (long long)Failed);
    std::fflush(stdout);
    if (CrashAfter >= 0 && Attempted >= CrashAfter)
      std::abort();
  }
};

/// A dense output buffer shaped like an app's output (DiffTest's
/// makeAppOutput convention) plus its byte view.
struct OutputBuffer {
  RawBuffer Raw;
  std::shared_ptr<void> Keep;
  size_t Bytes = 0;

  OutputBuffer() = default;
  OutputBuffer(const App &A, int W, int H) {
    Raw = makeAppOutput(A, W, H, &Keep);
    int64_t Elems = 1;
    for (int D = 0; D < Raw.Dimensions; ++D)
      Elems *= Raw.Dim[D].Extent;
    Bytes = size_t(Elems) * Raw.ElemType.bytes();
  }
  uint8_t *data() const { return static_cast<uint8_t *>(Raw.Host); }
  /// Fills the buffer with a pattern no pipeline produces everywhere, so a
  /// frame that skips writing fails the checks instead of passing on the
  /// previous frame's values.
  void poison() const { std::memset(data(), 0xA5, Bytes); }
};

double elementAt(const RawBuffer &B, int64_t I) {
  const uint8_t *P = static_cast<const uint8_t *>(B.Host) +
                     I * B.ElemType.bytes();
  const Type &T = B.ElemType;
  auto Load = [P](auto Tag) {
    decltype(Tag) V;
    std::memcpy(&V, P, sizeof(V));
    return double(V);
  };
  if (T.isFloat())
    return T.Bits == 32 ? Load(float()) : Load(double());
  if (T.isUInt())
    switch (T.Bits) {
    case 8:
      return Load(uint8_t());
    case 16:
      return Load(uint16_t());
    case 32:
      return Load(uint32_t());
    default:
      return Load(uint64_t());
    }
  switch (T.Bits) {
  case 8:
    return Load(int8_t());
  case 16:
    return Load(int16_t());
  case 32:
    return Load(int32_t());
  default:
    return Load(int64_t());
  }
}

/// How far one frame's output is from the app's reference.
struct RefDiff {
  bool Ok = false;
  double MaxAbsDiff = 0;
  int64_t DiffValues = 0; ///< interior values that differ at all
  std::string Detail;
};

double toleranceFor(const App &A, const RawBuffer &Out) {
  if (A.Name == "local_laplacian")
    return LocalLaplacianTolerance;
  return Out.ElemType.isFloat() ? 1e-5 : 0.0;
}

/// buffersMatch semantics (support/DiffTest.h) with counts: values inside
/// ReferenceMargin of the x/y border are skipped, and a margin that leaves
/// no interior fails rather than comparing nothing.
RefDiff compareToReference(const App &A, const RawBuffer &Out,
                           const RawBuffer &Ref) {
  RefDiff R;
  int W = Out.Dim[0].Extent, H = Out.Dim[1].Extent;
  int C = Out.Dimensions > 2 ? Out.Dim[2].Extent : 1;
  int M = A.ReferenceMargin;
  if (2 * M >= W || 2 * M >= H) {
    R.Detail = "margin " + std::to_string(M) + " leaves no interior";
    return R;
  }
  double Tol = toleranceFor(A, Out);
  bool Within = true;
  for (int Ch = 0; Ch < C; ++Ch)
    for (int Y = M; Y < H - M; ++Y)
      for (int X = M; X < W - M; ++X) {
        int64_t I = X + int64_t(W) * (Y + int64_t(H) * Ch);
        double VO = elementAt(Out, I), VR = elementAt(Ref, I);
        double D = std::fabs(VO - VR);
        if (!(D == 0)) { // NaN counts as a difference
          ++R.DiffValues;
          R.MaxAbsDiff = std::max(R.MaxAbsDiff, std::isnan(D) ? 1e300 : D);
        }
        if (Within && !(D <= Tol)) {
          Within = false;
          std::ostringstream OS;
          OS << "(" << X << ", " << Y << ", " << Ch << "): " << VO << " vs "
             << VR;
          R.Detail = OS.str();
        }
      }
  R.Ok = Within;
  return R;
}

/// Per-app reference outputs, computed once per process (not part of any
/// timed span or of setup_s).
class References {
public:
  const RawBuffer &get(const App &A, int W, int H) {
    auto Key = std::make_tuple(A.Name, W, H);
    auto It = Refs.find(Key);
    if (It == Refs.end()) {
      OutputBuffer B(A, W, H);
      A.Reference(W, H, B.Raw);
      It = Refs.emplace(Key, std::move(B)).first;
    }
    return It->second.Raw;
  }

private:
  std::map<std::tuple<std::string, int, int>, OutputBuffer> Refs;
};

/// Reference-check results per app, reported as check.<app>.* (worst
/// over the app's checked executables).
struct CheckLedger {
  std::map<std::string, RefDiff> Worst;
  void add(const std::string &App, const RefDiff &D) {
    RefDiff &W = Worst[App];
    W.MaxAbsDiff = std::max(W.MaxAbsDiff, D.MaxAbsDiff);
    W.DiffValues = std::max(W.DiffValues, D.DiffValues);
  }
};

/// One compiled (app, schedule) at one frame size: its executable, bound
/// inputs, output buffer, and the held copy of its first frame.
struct Variant {
  App *A = nullptr;
  std::string Schedule;
  int W = 0, H = 0;
  ParamBindings Inputs; // inputs only, for realizeAsync
  ParamBindings Params; // inputs + output, for Executable::run
  OutputBuffer Out;
  std::shared_ptr<const Executable> Exe;
  std::vector<uint8_t> First; ///< held copy of the checked first frame
};

//===----------------------------------------------------------------------===//
// The benchmark
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Per-layer figures from the compiles of one run (traced runs).
struct CompileLayers {
  double LowerMs = 0, EmitMs = 0, HostCcMs = 0;
  double CKb = 0;
  double IrNodes = 0;
};

class Bench {
public:
  explicit Bench(const Options &O) : Opt(O), Rng(O.Seed) {
    Counts.CrashAfter = O.CrashAfter;
    if (O.Trace)
      Spans.enable();
    Apps = paperApps();
  }

  int run();

private:
  // Workloads.
  void fig7Steady();
  void editCompile();
  void serveMixed();

  // Shared steps.
  std::vector<App *> seededAppOrder(const std::vector<std::string> &Names);
  App &app(const std::string &Name);
  void applySchedule(App &A, const std::string &Schedule);
  std::shared_ptr<const Executable> compileVariant(App &A, const Target &T,
                                                   int64_t Request);
  Variant makeVariant(App &A, const std::string &Schedule, int W, int H);
  bool checkFirstFrame(Variant &V, const uint8_t *Frame);
  bool sameAsFirst(const Variant &V, const uint8_t *Frame) const {
    return std::memcmp(Frame, V.First.data(), V.First.size()) == 0;
  }
  bool runFrame(Variant &V, const std::string &SpanName, int64_t Request,
                double *Ms);
  void noteClosedLoopFrame(const Variant &V, bool Ok, double Ms,
                           int Window);
  std::vector<Variant> setUp(const std::vector<App *> &Order,
                             const std::string &Schedule, int W, int H,
                             bool AsyncFirstFrame);
  void measureCompileHit(const std::vector<App *> &Cached);
  /// Set-up repetitions whose median is setup_s: 3, or 7 when set-up is
  /// only the fraction of a second of input generation (which varies more
  /// from one repetition to the next); 1 at --tiny scale and in traced
  /// runs, where set-up is not reported.
  int setupReps(bool InputsOnly) const {
    if (Opt.Tiny || Spans.enabled())
      return 1;
    return InputsOnly ? 7 : 3;
  }

  // Reporting.
  void emit(const std::string &Name, double Value, const std::string &Unit) {
    Out.push_back({Name, Value, Unit});
  }
  void emitLayerMetrics();
  void printManifest() const;
  void printResult() const;

  Options Opt;
  std::mt19937_64 Rng;
  std::vector<App> Apps;
  References Refs;
  CheckLedger Checks;
  Tally Counts;
  SpanRecorder Spans;
  std::vector<Metric> Out;
  int64_t NextRequest = 1;

  // End-to-end figures gathered by the workloads (every workload fills
  // every one; README.md defines each per workload).
  std::vector<double> SetupS;                            // per repetition
  std::map<std::string, std::vector<double>> TtffS;      // pipeline -> s
  Samples FrameMs;   // run time, or submission to completion when async
  Samples LatencyMs; // from due time
  double PixelsDone = 0, ProducingS = 0, TimedWallS = 0;
  std::map<int, int64_t> FramesWithinLimit; // by window
  /// Length of a measurement window in seconds; 0 means one window for the
  /// whole timed phase.
  double WindowS = 0;
  int windowAt(double SinceStart) const {
    return WindowS > 0 ? int(SinceStart / WindowS) : 0;
  }
  double goodputFps() const;

  // Per-layer figures (traced runs).
  CompileLayers Compiles;
  int64_t TimedFrames = 0;
  TaskSchedulerStats SchedBefore, SchedAfter;
  BufferPoolStats PoolBefore, PoolAfter;
  CompileCounters CountersAtStart;
  double CompileHitUs = 0;
  std::map<std::string, std::map<std::string, double>> StageSelfMs;
  double ProfileOverheadPct = 0;
  std::vector<double> SubmitUs, GenLateMs;
};

App &Bench::app(const std::string &Name) {
  for (App &A : Apps)
    if (A.Name == Name)
      return A;
  std::fprintf(stderr, "perfbench: no app named %s\n", Name.c_str());
  std::exit(2);
}

std::vector<App *>
Bench::seededAppOrder(const std::vector<std::string> &Names) {
  std::vector<App *> Order;
  for (const std::string &N : Names)
    Order.push_back(&app(N));
  std::shuffle(Order.begin(), Order.end(), Rng);
  return Order;
}

void Bench::applySchedule(App &A, const std::string &Schedule) {
  if (Schedule == "tuned")
    A.ScheduleTuned();
  else
    A.ScheduleBreadthFirst();
}

/// Compiles the app's current schedule. Untraced runs go through
/// Pipeline::compile (the compile cache, as users call it); traced runs
/// call lower(), codegenC() and makeExecutable() directly so each layer
/// gets its own span.
std::shared_ptr<const Executable>
Bench::compileVariant(App &A, const Target &T, int64_t Request) {
  if (!Spans.enabled())
    return Pipeline(A.Output).compile(T);
  double T0 = nowS();
  LoweredPipeline LP = Spans.time("lower", Request, [&] {
    return lower(A.Output.function(), T);
  });
  double T1 = nowS();
  std::string Source = Spans.time("codegenC", Request, [&] {
    return codegenC(LP, "pipeline_" + A.Name);
  });
  double T2 = nowS();
  auto Exe = Spans.time("makeExecutable", Request,
                        [&] { return makeExecutable(LP, T); });
  double T3 = nowS();
  Compiles.LowerMs += (T1 - T0) * 1e3;
  Compiles.EmitMs += (T2 - T1) * 1e3;
  Compiles.HostCcMs += ((T3 - T2) - (T2 - T1)) * 1e3;
  Compiles.CKb += double(Source.size()) / 1024.0;
  Compiles.IrNodes += double(countIRNodes(LP.Body));
  return Exe;
}

Variant Bench::makeVariant(App &A, const std::string &Schedule, int W,
                           int H) {
  Variant V;
  V.A = &A;
  V.Schedule = Schedule;
  V.W = W;
  V.H = H;
  V.Inputs = A.MakeInputs(W, H);
  V.Out = OutputBuffer(A, W, H);
  V.Params = V.Inputs;
  V.Params.bind(A.Output.name(), V.Out.Raw);
  return V;
}

/// Holds a copy of the executable's first frame and checks it against the
/// reference. With --corrupt-pixel the copy gets one interior value
/// changed first, which both this check and every later bit-identity
/// check must catch.
bool Bench::checkFirstFrame(Variant &V, const uint8_t *Frame) {
  V.First.assign(Frame, Frame + V.Out.Bytes);
  if (Opt.CorruptPixel) {
    int64_t Bytes = V.Out.Raw.ElemType.bytes();
    int64_t I = V.W / 2 + int64_t(V.W) * (V.H / 2);
    V.First[size_t(I * Bytes + Bytes - 1)] ^= 0x40; // most significant byte
  }
  RawBuffer Held = V.Out.Raw;
  Held.Host = V.First.data();
  RefDiff D = compareToReference(*V.A, Held, Refs.get(*V.A, V.W, V.H));
  Checks.add(V.A->Name, D);
  if (!D.Ok)
    std::fprintf(stderr, "perfbench: %s/%s first frame differs from the "
                 "reference at %s\n", V.A->Name.c_str(), V.Schedule.c_str(),
                 D.Detail.c_str());
  return D.Ok;
}

/// Runs one frame through Executable::run into a poisoned buffer; only the
/// run() call is timed. Returns whether the frame succeeded and matched.
bool Bench::runFrame(Variant &V, const std::string &SpanName,
                     int64_t Request, double *Ms) {
  V.Out.poison();
  double T0 = nowS();
  int Rc = Spans.time(SpanName, Request, [&] { return V.Exe->run(V.Params); });
  double T1 = nowS();
  *Ms = (T1 - T0) * 1e3;
  if (Rc != 0) {
    std::fprintf(stderr, "perfbench: %s/%s frame returned %d\n",
                 V.A->Name.c_str(), V.Schedule.c_str(), Rc);
    return false;
  }
  return V.First.empty() ? checkFirstFrame(V, V.Out.data())
                         : sameAsFirst(V, V.Out.data());
}

/// Records a timed frame of a closed loop, where a frame is due when the
/// loop issues it, so its latency is its run time.
void Bench::noteClosedLoopFrame(const Variant &V, bool Ok, double Ms,
                                int Window) {
  Counts.note(Ok);
  ++TimedFrames;
  FrameMs[Window][V.A->Name + "." + V.Schedule].push_back(Ms);
  LatencyMs[Window][V.A->Name + "." + V.Schedule].push_back(Ms);
  if (Ok) {
    PixelsDone += double(V.W) * V.H;
    if (Ms <= LatencyLimitMs)
      ++FramesWithinLimit[Window];
  }
}

double Bench::goodputFps() const {
  // The run's frame rate times the share of frames within the limit, that
  // share being the median over windows.
  std::vector<double> Shares;
  double Frames = 0;
  for (const auto &[Window, ByPipeline] : LatencyMs) {
    double InWindow = 0;
    for (const auto &[Pipeline, V] : ByPipeline)
      InWindow += double(V.size());
    auto It = FramesWithinLimit.find(Window);
    Shares.push_back(It == FramesWithinLimit.end() ? 0
                                                   : double(It->second) /
                                                         InWindow);
    Frames += InWindow;
  }
  return Frames / TimedWallS * median(Shares);
}

/// Set-up shared by fig7_steady and serve_mixed: setupReps() times, clear
/// the compile cache, generate inputs and compile every app (setup_s);
/// each pipeline's schedule-applied-to-first-frame time is its ttff. The
/// first frame runs through Executable::run, or through realizeAsync when
/// the workload serves frames that way. The last repetition's variants
/// are returned.
std::vector<Variant> Bench::setUp(const std::vector<App *> &Order,
                                  const std::string &Schedule, int W, int H,
                                  bool AsyncFirstFrame) {
  std::vector<Variant> Vs;
  for (App *A : Order)
    Refs.get(*A, W, H); // references first: excluded from setup_s
  for (int Rep = 0, Reps = setupReps(false); Rep < Reps; ++Rep) {
    Pipeline::clearCompileCache();
    Vs.clear();
    releaseFreedMemory();
    double Setup = 0;
    int SetupSpan = Spans.begin("setup", 0);
    // Every input first, so memory in use while each pipeline compiles does
    // not depend on the seeded app order.
    double T0 = nowS();
    for (App *A : Order)
      Vs.push_back(makeVariant(*A, Schedule, W, H));
    Setup += nowS() - T0;
    for (size_t I = 0; I < Order.size(); ++I) {
      App *A = Order[I];
      Variant &V = Vs[I];
      int64_t Req = NextRequest++;
      applySchedule(*A, Schedule);
      // Traced runs compile twice: the layer-split compile below is what
      // the ttff span times, and realizeAsync's frames use this cached one.
      if (AsyncFirstFrame && Spans.enabled())
        Spans.time("Pipeline::compile", Req,
                   [&] { return Pipeline(A->Output).compile(Target::jit()); });
      double T1 = nowS();
      int TtffSpan = Spans.begin("ttff", Req);
      V.Exe = compileVariant(*A, Target::jit(), Req);
      double T2 = nowS();
      bool Ok;
      double Ms = 0;
      if (AsyncFirstFrame) {
        V.Out.poison();
        FrameFuture F = Spans.time("Pipeline::realizeAsync", Req, [&] {
          return Pipeline(A->Output).realizeAsync(V.Out.Raw, V.Inputs,
                                                  Target::jit());
        });
        Spans.time("FrameFuture::wait", Req, [&] { return F.wait(); });
        Ok = checkFirstFrame(V, V.Out.data());
      } else {
        Ok = runFrame(V, "Executable::run", Req, &Ms);
      }
      double T3 = nowS();
      Spans.end(TtffSpan);
      Counts.note(Ok);
      releaseFreedMemory();
      Setup += T2 - T1;
      TtffS[A->Name + "." + Schedule].push_back(T3 - T1);
    }
    Spans.end(SetupSpan);
    SetupS.push_back(Setup);
  }
  return Vs;
}

/// lang.compile_hit_us: median cost of a warm Pipeline::compile (schedule
/// fingerprint + cache lookup) over the given cached pipelines.
void Bench::measureCompileHit(const std::vector<App *> &Cached) {
  std::vector<double> Us;
  for (App *A : Cached) {
    Pipeline P(A->Output);
    P.compile(Target::jit()); // make sure it is cached
    for (int I = 0; I < 200; ++I) {
      double T0 = nowS();
      P.compile(Target::jit());
      Us.push_back((nowS() - T0) * 1e6);
    }
  }
  CompileHitUs = median(Us);
}

//===----------------------------------------------------------------------===//
// fig7_steady
//===----------------------------------------------------------------------===//

void Bench::fig7Steady() {
  std::vector<App *> Order = seededAppOrder(
      {"blur", "bilateral_grid", "camera_pipe", "interpolate",
       "local_laplacian"});
  std::vector<Variant> Plain = setUp(Order, "tuned", BigW, BigH, false);

  // Traced runs also time a profiler-instrumented twin of each executable,
  // alternating with the plain one frame by frame.
  std::vector<Variant> Profiled;
  std::map<std::string, std::vector<double>> ProfiledMs;
  if (Spans.enabled()) {
    for (App *A : Order) {
      Profiled.push_back(makeVariant(*A, "tuned", BigW, BigH));
      Profiled.back().Exe = Spans.time("setup.profiled_twin", 0, [&] {
        return makeExecutable(lower(A->Output.function(), Target::jit()),
                              Target::jit().withProfile());
      });
      double Ms = 0;
      Counts.note(runFrame(Profiled.back(), "Executable::run", 0, &Ms));
    }
  }

  CountersAtStart = Pipeline::compileCounters();
  SchedBefore = taskSchedulerStats();
  PoolBefore = bufferPoolStats();
  int TimedSpan = Spans.begin("timed", 0);
  double Start = nowS();
  // Whole round-robin cycles, so every app gets the same number of frames;
  // 5 s windows, so a burst of host noise moves one window, not the run.
  WindowS = 5;
  while (nowS() - Start < Opt.Seconds) {
    int Window = windowAt(nowS() - Start);
    for (size_t I = 0; I < Plain.size(); ++I) {
      Variant &V = Plain[I];
      int64_t Req = NextRequest++;
      double Ms = 0;
      bool Ok = runFrame(V, "Executable::run", Req, &Ms);
      noteClosedLoopFrame(V, Ok, Ms, Window);
      ProducingS += Ms / 1e3;
      if (!Profiled.empty()) {
        // profilerReset() around each executable's frames keeps every
        // app's per-stage table its own.
        Variant &P = Profiled[I];
        profilerReset();
        setProfilerEnabled(true);
        bool POk = runFrame(P, "Executable::run", Req, &Ms);
        setProfilerEnabled(false);
        Counts.note(POk);
        ++TimedFrames;
        ProfiledMs[P.A->Name].push_back(Ms);
        for (const StageProfile &S : profilerReport().Stages)
          StageSelfMs[P.A->Name][S.Name] += double(S.SelfNanos) / 1e6;
      }
    }
  }
  TimedWallS = nowS() - Start;
  Spans.end(TimedSpan);
  SchedAfter = taskSchedulerStats();
  PoolAfter = bufferPoolStats();

  if (!Profiled.empty()) {
    std::vector<double> Ratios;
    for (auto &[Name, Ms] : ProfiledMs) {
      for (auto &[Stage, Total] : StageSelfMs[Name])
        Total /= double(Ms.size());
      Ratios.push_back(median(Ms) /
                       median(pooled(FrameMs, Name + ".tuned")));
    }
    ProfileOverheadPct = (geomean(Ratios) - 1) * 100;
  }
}

//===----------------------------------------------------------------------===//
// edit_compile
//===----------------------------------------------------------------------===//

void Bench::editCompile() {
  std::vector<App *> Order = seededAppOrder(
      {"blur", "bilateral_grid", "camera_pipe", "interpolate",
       "local_laplacian"});
  for (App *A : Order)
    Refs.get(*A, BigW, BigH);

  // Set-up is input generation only: compiling is what this workload
  // measures.
  std::vector<Variant> Vs;
  for (int Rep = 0, Reps = setupReps(true); Rep < Reps; ++Rep) {
    Vs.clear();
    double T0 = nowS();
    for (App *A : Order)
      for (const char *S : ScheduleNames)
        Vs.push_back(makeVariant(*A, S, BigW, BigH));
    SetupS.push_back(nowS() - T0);
  }
  std::shuffle(Vs.begin(), Vs.end(), Rng);

  CountersAtStart = Pipeline::compileCounters();
  SchedBefore = taskSchedulerStats();
  PoolBefore = bufferPoolStats();
  int TimedSpan = Spans.begin("timed", 0);
  double Start = nowS();
  // Whole cycles over all ten pipelines, at least one.
  do {
    for (Variant &V : Vs) {
      Pipeline::clearCompileCache();
      V.First.clear();
      int64_t Req = NextRequest++;
      int TtffSpan = Spans.begin("ttff", Req);
      double T0 = nowS();
      applySchedule(*V.A, V.Schedule);
      V.Exe = compileVariant(*V.A, Target::jit(), Req);
      double Ms = 0;
      bool Ok = runFrame(V, "Executable::run", Req, &Ms);
      TtffS[V.A->Name + "." + V.Schedule].push_back(nowS() - T0);
      Spans.end(TtffSpan);
      noteClosedLoopFrame(V, Ok, Ms, 0);
      // A few more frames from the fresh executable, as an author looks
      // at a result: each must be bit-identical to the checked first one,
      // and they give the frame-time metrics more than one cold sample.
      for (int K = 0; K < EditExtraFrames; ++K) {
        Ok = runFrame(V, "Executable::run", Req, &Ms);
        noteClosedLoopFrame(V, Ok, Ms, 0);
      }
      V.Exe.reset(); // one executable alive at a time, whatever the order
      releaseFreedMemory();
    }
  } while (!Spans.enabled() && nowS() - Start < Opt.Seconds);
  TimedWallS = nowS() - Start;
  ProducingS = TimedWallS;
  Spans.end(TimedSpan);
  SchedAfter = taskSchedulerStats();
  PoolAfter = bufferPoolStats();
}

//===----------------------------------------------------------------------===//
// serve_mixed
//===----------------------------------------------------------------------===//

void Bench::serveMixed() {
  std::vector<App *> Order = seededAppOrder(
      {"blur", "bilateral_grid", "camera_pipe", "interpolate"});
  std::vector<Variant> Vs = setUp(Order, "tuned", ServeW, ServeH, true);
  if (Spans.enabled())
    measureCompileHit(Order);

  // Output slots per app; a slot is busy from submission until the
  // generator has checked the frame written into it.
  struct Slot {
    OutputBuffer Buf;
    bool Busy = false;
  };
  std::vector<std::vector<Slot>> Slots(Vs.size());
  auto NewSlot = [&](size_t A) {
    Slots[A].push_back({OutputBuffer(*Vs[A].A, ServeW, ServeH), false});
    Slots[A].back().Buf.poison();
    return Slots[A].size() - 1;
  };
  auto FreeSlot = [&](size_t A) {
    for (size_t I = 0; I < Slots[A].size(); ++I)
      if (!Slots[A][I].Busy)
        return I;
    return NewSlot(A);
  };
  // Enough slots that the generator does not allocate while it runs.
  for (size_t A = 0; A < Vs.size(); ++A)
    for (int K = 0; K < 16; ++K)
      NewSlot(A);

  struct Frame {
    FrameFuture F;
    size_t App = 0, Slot = 0;
    double Due = 0, Submitted = 0, Done = 0;
    int64_t Request = 0;
  };
  std::vector<Frame> Flying, Finished;

  // Completions are detected by polling done(): the generator never waits
  // on a future, so it never runs frame work and never stalls its own
  // arrival schedule. Reap() only timestamps completions; the checks (a
  // memcmp per frame) run later, when the next arrival is far enough away
  // that they cannot delay it.
  auto Reap = [&] {
    for (size_t I = 0; I < Flying.size();) {
      if (!Flying[I].F.done()) {
        ++I;
        continue;
      }
      Flying[I].Done = nowS();
      Finished.push_back(Flying[I]);
      Flying[I] = Flying.back();
      Flying.pop_back();
    }
  };
  double Start = 0; // set when the timed phase begins
  auto Verify = [&](const Frame &F) {
    Variant &V = Vs[F.App];
    Slot &S = Slots[F.App][F.Slot];
    double Latency = (F.Done - F.Due) * 1e3;
    bool Ok = sameAsFirst(V, S.Buf.data());
    Counts.note(Ok);
    ++TimedFrames;
    int Window = windowAt(F.Due - Start);
    LatencyMs[Window][V.A->Name + "." + V.Schedule].push_back(Latency);
    FrameMs[Window][V.A->Name + "." + V.Schedule].push_back(
        (F.Done - F.Submitted) * 1e3);
    Spans.add("frame", F.Due, F.Done, F.Request);
    if (Ok) {
      PixelsDone += double(ServeW) * ServeH;
      if (Latency <= LatencyLimitMs)
        ++FramesWithinLimit[Window];
    }
    S.Buf.poison();
    S.Busy = false;
  };

  // The seeded arrival schedule: exactly Rate x Seconds arrivals whose
  // gaps are uniform in [0.5, 1.5] of the mean, rescaled to span the
  // window; each app an equal share in shuffled order, and priorities 0..2
  // in equal shares, shuffled.
  size_t N = std::max<size_t>(Vs.size(), size_t(ServeRateFps * Opt.Seconds));
  std::vector<double> Due(N);
  std::uniform_real_distribution<double> Uniform(0.0, 1.0);
  double Sum = 0;
  for (double &D : Due)
    D = Sum += 0.5 + Uniform(Rng);
  Sum += 0.5 + Uniform(Rng); // the gap after the last arrival
  for (double &D : Due)
    D *= Opt.Seconds / Sum;
  std::vector<size_t> AppOf(N);
  std::vector<int> PriorityOf(N);
  for (size_t I = 0; I < N; ++I) {
    AppOf[I] = I % Vs.size();
    PriorityOf[I] = int(I % 3);
  }
  std::shuffle(AppOf.begin(), AppOf.end(), Rng);
  std::shuffle(PriorityOf.begin(), PriorityOf.end(), Rng);

  CountersAtStart = Pipeline::compileCounters();
  SchedBefore = taskSchedulerStats();
  PoolBefore = bufferPoolStats();
  int TimedSpan = Spans.begin("timed", 0);
  WindowS = 1; // frames are binned by due time, one window per second
  Start = nowS();
  for (size_t Next = 0; Next < N;) {
    double NextDue = Start + Due[Next];
    Reap();
    double Now = nowS();
    if (Now < NextDue) {
      if (!Finished.empty() && NextDue - Now > 2e-3) {
        Verify(Finished.back());
        Finished.pop_back();
      } else {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(NextDue - Now, 100e-6)));
      }
      continue;
    }
    size_t A = AppOf[Next];
    int Priority = PriorityOf[Next];
    ++Next;
    size_t SlotIdx = FreeSlot(A);
    Slot &S = Slots[A][SlotIdx];
    S.Busy = true;
    Frame F;
    F.App = A;
    F.Slot = SlotIdx;
    F.Due = NextDue;
    F.Request = NextRequest++;
    double Sub0 = nowS();
    F.F = Spans.time("Pipeline::realizeAsync", F.Request, [&] {
      return Pipeline(Vs[A].A->Output)
          .realizeAsync(S.Buf.Raw, Vs[A].Inputs, Target::jit(), Priority);
    });
    F.Submitted = nowS();
    SubmitUs.push_back((F.Submitted - Sub0) * 1e6);
    GenLateMs.push_back((Sub0 - NextDue) * 1e3);
    Flying.push_back(F);
  }
  while (!Flying.empty()) {
    Reap();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // Throughput and goodput count the time until the last frame completed.
  for (const Frame &F : Finished)
    ProducingS = std::max(ProducingS, F.Done - Start);
  TimedWallS = ProducingS;
  for (const Frame &F : Finished)
    Verify(F);
  Finished.clear();
  Spans.end(TimedSpan);
  SchedAfter = taskSchedulerStats();
  PoolAfter = bufferPoolStats();
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

void Bench::emitLayerMetrics() {
  const std::vector<std::string> AppNames = {
      "blur", "bilateral_grid", "camera_pipe", "interpolate",
      "local_laplacian"};

  emit("transforms.lower_ms", Compiles.LowerMs, "ms");
  emit("transforms.ir_nodes", Compiles.IrNodes, "count");
  emit("codegen.emit_ms", Compiles.EmitMs, "ms");
  emit("codegen.c_kb", Compiles.CKb, "KiB");
  emit("codegen.host_cc_ms", Compiles.HostCcMs, "ms");
  emit("codegen.host_cc_rss_mb", peakRssMb(RUSAGE_CHILDREN), "MB");

  for (const std::string &A : AppNames) {
    emit("apps." + A + ".frame_ms_p50", median(pooled(FrameMs, A + ".tuned")),
         "ms");
    for (const std::string &Stage : ProfiledStages.at(A))
      emit("apps." + A + ".stage_self_ms." + metricComponent(Stage),
           StageSelfMs[A][Stage],
           "ms");
    for (const char *S : ScheduleNames) {
      auto T = TtffS.find(A + "." + S);
      emit("apps." + A + "." + S + ".ttff_s",
           T == TtffS.end() ? 0 : median(T->second), "s");
    }
  }

  double Frames = double(std::max<int64_t>(TimedFrames, 1));
  emit("runtime.sched.chunks_per_frame",
       double(SchedAfter.ChunksExecuted - SchedBefore.ChunksExecuted) /
           Frames,
       "count");
  emit("runtime.sched.steals_per_frame",
       double(SchedAfter.Steals - SchedBefore.Steals) / Frames, "count");
  emit("runtime.sched.peak_queue_depth", double(SchedAfter.PeakQueueDepth),
       "count");
  int64_t Fresh = PoolAfter.FreshAllocations - PoolBefore.FreshAllocations;
  int64_t Hits = PoolAfter.PoolHits - PoolBefore.PoolHits;
  emit("runtime.pool.fresh_allocs_per_frame", double(Fresh) / Frames,
       "count");
  emit("runtime.pool.hit_ratio",
       Hits + Fresh > 0 ? double(Hits) / double(Hits + Fresh) : 0, "ratio");
  emit("runtime.pool.bytes_held_mb", double(PoolAfter.BytesHeld) / 1048576.0,
       "MB");

  CompileCounters C = Pipeline::compileCounters();
  emit("lang.compile_hit_us", CompileHitUs, "us");
  emit("lang.lowerings", double(C.Lowerings - CountersAtStart.Lowerings),
       "count");
  emit("lang.backend_compiles",
       double(C.BackendCompiles - CountersAtStart.BackendCompiles), "count");
  emit("lang.cache_hits", double(C.CacheHits - CountersAtStart.CacheHits),
       "count");

  emit("serve.submit_us", median(SubmitUs), "us");
  emit("serve.gen_late_ms_p99", percentile(GenLateMs, 99), "ms");
  emit("serve.p99_ms", percentile(pooled(LatencyMs, ""), 99), "ms");

  emit("observe.profile_overhead_pct", ProfileOverheadPct, "%");

  for (const std::string &A : AppNames) {
    auto It = Checks.Worst.find(A);
    emit("check." + A + ".ref_max_abs_diff",
         It == Checks.Worst.end() ? 0 : It->second.MaxAbsDiff, "abs");
    emit("check." + A + ".ref_diff_px",
         It == Checks.Worst.end() ? 0 : double(It->second.DiffValues),
         "count");
  }
  emit("check.failed_frac",
       double(Counts.Failed) / double(std::max<int64_t>(Counts.Attempted, 1)),
       "ratio");

  // How much of the run the layer spans explain.
  double Ttff = Spans.durationTotal("ttff");
  double CompileSelf = Spans.selfTotal("lower") +
                       Spans.selfTotal("codegenC") +
                       Spans.selfTotal("makeExecutable");
  emit("trace.compile_self_pct", Ttff > 0 ? CompileSelf / Ttff * 100 : 0,
       "%");
  double Timed = Spans.durationTotal("timed");
  double RunInTimed = 0;
  for (const Span &S : Spans.spans()) {
    if (S.Name != "Executable::run")
      continue;
    for (int P = S.Parent; P >= 0; P = Spans.spans()[P].Parent)
      if (Spans.spans()[P].Name == "timed") {
        RunInTimed += S.duration();
        break;
      }
  }
  emit("trace.run_self_pct", Timed > 0 ? RunInTimed / Timed * 100 : 0, "%");
}

void Bench::printManifest() const {
  int Cpus = hostCpus();
  int Pool = taskSchedulerThreads();
  std::ostringstream OS;
  OS << "{\"manifest\": {\"workload\": \"" << jsonEscape(Opt.Workload)
     << "\", \"seed\": " << Opt.Seed << ", \"seconds\": " << num(Opt.Seconds)
     << ", \"trace\": " << (Opt.Trace ? 1 : 0) << ", \"nproc\": " << Cpus
     << ", \"pool_threads\": " << Pool
     << ", \"oversubscribed\": " << (Pool > Cpus ? "true" : "false")
     << ", \"cc_version\": \"" << jsonEscape(firstLineOf("cc --version"))
     << "\", \"jit_flags\": \"" << JitFlags << "\", \"frame_sizes\": {\""
     << "fig7_steady\": \"" << BigW << "x" << BigH
     << "\", \"edit_compile\": \"" << BigW << "x" << BigH
     << "\", \"serve_mixed\": \"" << ServeW << "x" << ServeH
     << "\"}, \"offered_rate_fps\": " << num(ServeRateFps)
     << ", \"latency_limit_ms\": " << num(LatencyLimitMs)
     << ", \"git_commit\": \""
     << jsonEscape(firstLineOf("git rev-parse HEAD 2>/dev/null"))
     << "\", \"tiny\": " << (Opt.Tiny ? "true" : "false") << "}}";
  std::printf("%s\n", OS.str().c_str());
}

void Bench::printResult() const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Counts.Failed == 0 ? "true" : "false")
     << ", \"attempted\": " << Counts.Attempted
     << ", \"failed\": " << Counts.Failed << ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I)
    OS << (I ? ", " : "") << "\"" << Out[I].Name << "\": {\"value\": "
       << num(Out[I].Value) << ", \"unit\": \"" << Out[I].Unit << "\"}";
  OS << "}}";
  std::printf("%s\n", OS.str().c_str());
  std::fflush(stdout);
}

int Bench::run() {
  int Pool = std::min(hostCpus(), MaxPoolThreads);
  setTaskSchedulerThreads(Pool);
  if (taskSchedulerThreads() > hostCpus())
    std::fprintf(stderr, "perfbench: warning: %d pool threads exceed the "
                 "host's %d CPUs; timings measure contention\n",
                 taskSchedulerThreads(), hostCpus());

  if (Opt.Workload == "fig7_steady")
    fig7Steady();
  else if (Opt.Workload == "edit_compile")
    editCompile();
  else
    serveMixed();

  if (Opt.Trace) {
    emitLayerMetrics();
    mkdir(".bench_out", 0755);
    std::string RunId =
        Opt.Workload + "-seed" + std::to_string(Opt.Seed);
    Spans.write(".bench_out/spans-" + RunId + ".json", RunId);
  } else {
    std::vector<double> Ttff;
    for (auto &[Name, S] : TtffS)
      Ttff.push_back(median(S));
    emit("setup_s", median(SetupS), "s");
    emit("frame_ms_p50", windowedPercentile(FrameMs, 50), "ms");
    emit("frame_ms_p90", windowedPercentile(FrameMs, 90), "ms");
    emit("throughput_mpix_s", PixelsDone / 1e6 / ProducingS, "Mpix/s");
    emit("ttff_s", geomean(Ttff), "s");
    emit("serve_p50_ms", windowedPercentile(LatencyMs, 50), "ms");
    emit("serve_p90_ms", windowedPercentile(LatencyMs, 90), "ms");
    emit("serve_goodput_fps", goodputFps(), "fps");
    emit("peak_rss_mb", peakRssMb(RUSAGE_SELF), "MB");
  }
  printManifest();
  printResult();
  return 0;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    const char *V = nullptr;
    if (A == "--workload" && (V = Value("--workload")))
      O.Workload = V;
    else if (A == "--seed" && (V = Value("--seed")))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds" && (V = Value("--seconds")))
      O.Seconds = std::atof(V);
    else if (A == "--trace" && (V = Value("--trace")))
      O.Trace = std::atoi(V) != 0;
    else if (A == "--crash-after" && (V = Value("--crash-after")))
      O.CrashAfter = std::atoll(V);
    else if (A == "--tiny")
      O.Tiny = true;
    else if (A == "--corrupt-pixel")
      O.CorruptPixel = true;
    else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", A.c_str());
      return false;
    }
  }
  if (O.Workload != "fig7_steady" && O.Workload != "edit_compile" &&
      O.Workload != "serve_mixed") {
    std::fprintf(stderr, "perfbench: --workload must be fig7_steady, "
                 "edit_compile or serve_mixed\n");
    return false;
  }
  if (!(O.Seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  return Bench(O).run();
}
