//===-- transforms/Instrument.cpp - Profiling and tracing hooks -----------===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "transforms/Instrument.h"

#include "ir/IRMutator.h"
#include "runtime/Runtime.h"
#include "transforms/StorageFlattening.h"

#include <vector>

namespace halide {

namespace {

Expr hook(HookId Id, const std::string &Stage, std::vector<Expr> Payload,
          Type T = Int(32)) {
  std::vector<Expr> Args = {IntImm::make(Int(32), int64_t(Id)),
                            StringImm::make(Stage)};
  for (Expr &E : Payload)
    Args.push_back(std::move(E));
  return Call::make(T, Call::RuntimeHook, std::move(Args),
                    CallType::Intrinsic);
}

/// Wraps \p Body in \p Open / \p Close hooks for \p Stage.
Stmt bracket(HookId Open, HookId Close, const std::string &Stage,
             std::vector<Expr> OpenPayload, Stmt Body) {
  return Block::make(
      Evaluate::make(hook(Open, Stage, std::move(OpenPayload))),
      Block::make(std::move(Body), Evaluate::make(hook(Close, Stage, {}))));
}

Stmt bracketStage(const std::string &Stage, Stmt Body) {
  return bracket(HookId::ProfEnter, HookId::ProfExit, Stage, {},
                 std::move(Body));
}

class Instrument : public IRMutator {
public:
  Instrument(const std::map<std::string, Function> &Env,
             const std::string &OutputName, const Target &T)
      : Env(Env), OutputName(OutputName), Profile(T.Profile),
        Trace(T.Trace) {
    for (const auto &[Name, F] : Env)
      if (F.traceLoads() || F.traceStores() || F.traceRealizations())
        TraceAll = false;
  }

  /// Whether \p Buf is traced under \p Flag (input images, which have no
  /// Func to carry flags, are traced only when everything is).
  bool traces(const std::string &Buf, bool (Function::*Flag)() const) const {
    if (!Trace)
      return false;
    auto It = Env.find(Buf);
    return TraceAll || (It != Env.end() && (It->second.*Flag)());
  }

  /// Wraps \p Body in trace.begin(extents...) / trace.end for \p Buf.
  static Stmt bracketRealization(const std::string &Buf,
                                 std::vector<Expr> Extents, Stmt Body) {
    return bracket(HookId::TraceBegin, HookId::TraceEnd, Buf,
                   std::move(Extents), std::move(Body));
  }

private:
  const std::map<std::string, Function> &Env;
  const std::string &OutputName;
  const bool Profile, Trace;
  /// With no per-stage flags anywhere, a traced target traces everything.
  bool TraceAll = true;
  int NextLet = 0;

  std::string letName(const std::string &Buf) {
    return Buf + ".trace." + std::to_string(NextLet++);
  }

  Expr visit(const Load *Op) override {
    Expr Index = mutate(Op->Index);
    if (!traces(Op->Name, &Function::traceLoads)) {
      if (Index.sameAs(Op->Index))
        return Op;
      return Load::make(Op->NodeType, Op->Name, std::move(Index));
    }
    std::string I = letName(Op->Name);
    Expr IVar = Variable::make(Index.type(), I);
    Expr Value = Load::make(Op->NodeType, Op->Name, IVar);
    return Let::make(I, std::move(Index),
                     hook(HookId::TraceLoad, Op->Name, {Value, IVar},
                          Op->NodeType));
  }

  Stmt visit(const Store *Op) override {
    Expr Value = mutate(Op->Value);
    Expr Index = mutate(Op->Index);
    if (!traces(Op->Name, &Function::traceStores)) {
      if (Value.sameAs(Op->Value) && Index.sameAs(Op->Index))
        return Op;
      return Store::make(Op->Name, std::move(Value), std::move(Index));
    }
    std::string V = letName(Op->Name), I = letName(Op->Name);
    Expr VVar = Variable::make(Value.type(), V);
    Expr IVar = Variable::make(Index.type(), I);
    Stmt Body = Block::make(
        Store::make(Op->Name, VVar, IVar),
        Evaluate::make(hook(HookId::TraceStore, Op->Name, {VVar, IVar},
                            Value.type())));
    return LetStmt::make(V, std::move(Value),
                         LetStmt::make(I, std::move(Index), std::move(Body)));
  }

  Stmt visit(const Allocate *Op) override {
    Stmt Body = mutate(Op->Body);
    if (traces(Op->Name, &Function::traceRealizations))
      Body = bracketRealization(Op->Name, Op->Extents, std::move(Body));
    if (Body.sameAs(Op->Body))
      return Op;
    return Allocate::make(Op->Name, Op->ElemType, Op->Extents,
                          std::move(Body), Op->InSharedMemory);
  }

  Stmt visit(const ProducerConsumer *Op) override {
    // Consume bodies need no hook of their own: with a stage stack, the
    // producer's exit *is* the consume transition (the enclosing stage
    // resumes accumulating self time). Produce bodies are bracketed on
    // their uninstrumented shape, so the update recognition below never
    // sees trace hooks. The output stage is entered once, around the
    // whole pipeline body (see instrument()), so its own produce node
    // only gets the per-update sub-stages.
    Stmt Body = Op->Body;
    if (Profile && Op->IsProducer) {
      Body = bracketUpdates(Op->Name, Body);
      if (Op->Name != OutputName)
        Body = bracketStage(Op->Name, Body);
    }
    Body = mutate(Body);
    if (Body.sameAs(Op->Body))
      return Op;
    return ProducerConsumer::make(Op->Name, Op->IsProducer, std::move(Body));
  }

  /// Best-effort per-update sub-stages: when the produce body's top
  /// Block chain (under its LetStmt preamble) has exactly 1 + #updates
  /// statements, statements 1..N are the update stages in definition
  /// order; bracket each as "name.update(k)". Anything else (folded
  /// storage, fused loops) keeps whole-stage attribution only.
  Stmt bracketUpdates(const std::string &Name, Stmt Body) {
    auto It = Env.find(Name);
    if (It == Env.end() || It->second.updates().empty())
      return Body;
    size_t NumUpdates = It->second.updates().size();
    std::vector<const LetStmt *> Wrappers;
    const Stmt *Cur = &Body;
    while (const LetStmt *L = Cur->as<LetStmt>()) {
      Wrappers.push_back(L);
      Cur = &L->Body;
    }
    std::vector<Stmt> Chain;
    while (const Block *B = Cur->as<Block>()) {
      Chain.push_back(B->First);
      Cur = &B->Rest;
    }
    Chain.push_back(*Cur);
    if (Chain.size() != 1 + NumUpdates)
      return Body;
    for (size_t K = 0; K < NumUpdates; ++K)
      Chain[1 + K] = bracketStage(
          Name + ".update(" + std::to_string(K) + ")", Chain[1 + K]);
    Stmt Rebuilt = Block::make(Chain);
    for (auto W = Wrappers.rbegin(); W != Wrappers.rend(); ++W)
      Rebuilt = LetStmt::make((*W)->Name, (*W)->Value, Rebuilt);
    return Rebuilt;
  }
};

} // namespace

LoweredPipeline instrument(const LoweredPipeline &P, const Target &T) {
  LoweredPipeline Out = P;
  if (!P.Body.defined())
    return Out;
  const std::string OutputName = P.Output.name();
  Instrument M(P.Env, OutputName, T);
  Out.Body = M.mutate(P.Body);
  // The whole pipeline body is the output stage's production; bracket it
  // so time outside any inner producer (the preamble, the output's own
  // loops) is attributed to the output stage rather than lost.
  if (T.Profile)
    Out.Body = bracketStage(OutputName, Out.Body);
  // The output buffer is caller-allocated (no Allocate node); bracket the
  // whole pipeline with its realization using the buffer's extent
  // metadata parameters, which every backend can resolve.
  if (M.traces(OutputName, &Function::traceRealizations)) {
    std::vector<Expr> Extents;
    for (int D = 0; D < P.Output.dimensions(); ++D)
      Extents.push_back(Variable::make(
          Int(32), bufferExtentName(OutputName, D), /*IsParam=*/true));
    Out.Body = Instrument::bracketRealization(OutputName, std::move(Extents),
                                              std::move(Out.Body));
  }
  return Out;
}

} // namespace halide
