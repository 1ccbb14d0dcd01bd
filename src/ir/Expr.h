//===-- ir/Expr.h - The Halide IR: expressions and statements ---*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler's intermediate representation. Expressions (Expr) are pure,
/// side-effect-free values as described in paper section 2; statements (Stmt)
/// are the imperative loop nests synthesized by lowering (section 4.1).
/// Nodes are immutable, kind-tagged (LLVM-style isa/cast dispatch, no RTTI),
/// and intrusively reference counted so subtrees are shared freely.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_IR_EXPR_H
#define HALIDE_IR_EXPR_H

#include "ir/Type.h"
#include "support/Util.h"

#include <string>
#include <vector>

namespace halide {

class IRVisitor;

/// Discriminator for every IR node type. Expr kinds first, Stmt kinds after
/// FirstStmtKind.
enum class IRNodeKind : uint8_t {
  // Expressions.
  IntImm,
  UIntImm,
  FloatImm,
  StringImm,
  Cast,
  Variable,
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Min,
  Max,
  EQ,
  NE,
  LT,
  LE,
  GT,
  GE,
  And,
  Or,
  Not,
  Select,
  Load,
  Ramp,
  Broadcast,
  Call,
  Let,
  // Statements.
  LetStmt,
  AssertStmt,
  ProducerConsumer,
  For,
  Store,
  Provide,
  Allocate,
  Realize,
  Block,
  IfThenElse,
  Evaluate,
};

constexpr IRNodeKind FirstStmtKind = IRNodeKind::LetStmt;

/// Base class of all IR nodes.
struct IRNode {
  const IRNodeKind Kind;
  /// Atomic: IR handles are copied across threads by concurrent realize()
  /// and compile() calls (see IntrusivePtr in support/Util.h).
  mutable std::atomic<int> RefCount{0};

  explicit IRNode(IRNodeKind Kind) : Kind(Kind) {}
  virtual ~IRNode() = default;
  virtual void accept(IRVisitor *Visitor) const = 0;
};

/// Base class of expression nodes; carries the value type.
struct BaseExprNode : IRNode {
  Type NodeType;
  explicit BaseExprNode(IRNodeKind Kind) : IRNode(Kind) {}
};

/// Base class of statement nodes.
struct BaseStmtNode : IRNode {
  explicit BaseStmtNode(IRNodeKind Kind) : IRNode(Kind) {}
};

/// CRTP helper injecting the static kind tag and accept() for expressions.
template <typename DerivedT> struct ExprNode : BaseExprNode {
  ExprNode() : BaseExprNode(DerivedT::StaticKind) {}
  void accept(IRVisitor *Visitor) const override;
};

/// CRTP helper injecting the static kind tag and accept() for statements.
template <typename DerivedT> struct StmtNode : BaseStmtNode {
  StmtNode() : BaseStmtNode(DerivedT::StaticKind) {}
  void accept(IRVisitor *Visitor) const override;
};

/// A reference-counted handle to an immutable expression tree. May be
/// "undefined" (null), which the compiler uses to mean "absent".
class Expr {
public:
  Expr() = default;
  Expr(const BaseExprNode *Node) : Contents(Node) {}

  /// Literal conversions used pervasively by front-end code: `x + 1`,
  /// `in(x) * 0.25f`. Integer literals become Int(32); float literals keep
  /// their natural width.
  Expr(int Value);
  Expr(float Value);
  Expr(double Value);

  bool defined() const { return static_cast<bool>(Contents); }
  const BaseExprNode *get() const { return Contents.get(); }
  const BaseExprNode *operator->() const { return Contents.get(); }
  bool sameAs(const Expr &Other) const { return Contents.sameAs(Other.Contents); }

  Type type() const {
    internal_assert(defined()) << "type() of undefined Expr";
    return Contents->NodeType;
  }

  void accept(IRVisitor *Visitor) const {
    internal_assert(defined()) << "accept() on undefined Expr";
    Contents->accept(Visitor);
  }

  /// dyn_cast-style accessor: returns the node if it is of kind T, else null.
  template <typename T> const T *as() const {
    if (Contents && Contents->Kind == T::StaticKind)
      return static_cast<const T *>(Contents.get());
    return nullptr;
  }

private:
  IntrusivePtr<const BaseExprNode> Contents;
};

/// A reference-counted handle to an immutable statement tree.
class Stmt {
public:
  Stmt() = default;
  Stmt(const BaseStmtNode *Node) : Contents(Node) {}

  bool defined() const { return static_cast<bool>(Contents); }
  const BaseStmtNode *get() const { return Contents.get(); }
  const BaseStmtNode *operator->() const { return Contents.get(); }
  bool sameAs(const Stmt &Other) const { return Contents.sameAs(Other.Contents); }

  void accept(IRVisitor *Visitor) const {
    internal_assert(defined()) << "accept() on undefined Stmt";
    Contents->accept(Visitor);
  }

  template <typename T> const T *as() const {
    if (Contents && Contents->Kind == T::StaticKind)
      return static_cast<const T *>(Contents.get());
    return nullptr;
  }

private:
  IntrusivePtr<const BaseStmtNode> Contents;
};

/// A half-open-agnostic interval [Min, Min+Extent) used by Realize bounds.
struct Range {
  Expr Min, Extent;
  Range() = default;
  Range(Expr Min, Expr Extent) : Min(Min), Extent(Extent) {}
};

using Region = std::vector<Range>;

//===----------------------------------------------------------------------===//
// Expression nodes
//===----------------------------------------------------------------------===//

/// A signed integer constant.
struct IntImm final : ExprNode<IntImm> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::IntImm;
  int64_t Value;
  static Expr make(Type T, int64_t Value);
};

/// An unsigned integer constant (also booleans, as UInt(1)).
struct UIntImm final : ExprNode<UIntImm> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::UIntImm;
  uint64_t Value;
  static Expr make(Type T, uint64_t Value);
};

/// A floating point constant.
struct FloatImm final : ExprNode<FloatImm> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::FloatImm;
  double Value;
  static Expr make(Type T, double Value);
};

/// A string constant; only used as arguments to debugging intrinsics.
struct StringImm final : ExprNode<StringImm> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::StringImm;
  std::string Value;
  static Expr make(const std::string &Value);
};

/// Reinterpreting numeric conversion between types of equal lane count.
struct Cast final : ExprNode<Cast> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Cast;
  Expr Value;
  static Expr make(Type T, Expr Value);
};

/// A named scalar value: loop variables, let bindings, pipeline parameters.
struct Variable final : ExprNode<Variable> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Variable;
  std::string Name;
  /// True for runtime scalar parameters of the pipeline (bound at call time).
  bool IsParam = false;
  static Expr make(Type T, const std::string &Name, bool IsParam = false);
};

/// Binary operator helper: all arithmetic nodes have operands A and B of the
/// node's own type.
template <typename DerivedT> struct BinaryOpNode : ExprNode<DerivedT> {
  Expr A, B;
  static Expr make(Expr A, Expr B) {
    internal_assert(A.defined() && B.defined()) << "binary op of undef";
    internal_assert(A.type() == B.type())
        << "binary op of mismatched types " << A.type().str() << " vs "
        << B.type().str();
    DerivedT *Node = new DerivedT;
    Node->NodeType = A.type();
    Node->A = A;
    Node->B = B;
    return Node;
  }
};

struct Add final : BinaryOpNode<Add> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Add;
};
struct Sub final : BinaryOpNode<Sub> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Sub;
};
struct Mul final : BinaryOpNode<Mul> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Mul;
};
/// Division. Integer division rounds toward negative infinity (Euclidean
/// with positive divisor), matching the interval analysis and both back ends.
struct Div final : BinaryOpNode<Div> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Div;
};
/// Remainder matching Div: result has the sign of the divisor.
struct Mod final : BinaryOpNode<Mod> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Mod;
};
struct Min final : BinaryOpNode<Min> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Min;
};
struct Max final : BinaryOpNode<Max> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Max;
};

/// Comparison helper: operands share a type; result is Bool with the same
/// lane count.
template <typename DerivedT> struct CmpOpNode : ExprNode<DerivedT> {
  Expr A, B;
  static Expr make(Expr A, Expr B) {
    internal_assert(A.defined() && B.defined()) << "comparison of undef";
    internal_assert(A.type() == B.type())
        << "comparison of mismatched types " << A.type().str() << " vs "
        << B.type().str();
    DerivedT *Node = new DerivedT;
    Node->NodeType = Bool(A.type().Lanes);
    Node->A = A;
    Node->B = B;
    return Node;
  }
};

struct EQ final : CmpOpNode<EQ> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::EQ;
};
struct NE final : CmpOpNode<NE> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::NE;
};
struct LT final : CmpOpNode<LT> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::LT;
};
struct LE final : CmpOpNode<LE> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::LE;
};
struct GT final : CmpOpNode<GT> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::GT;
};
struct GE final : CmpOpNode<GE> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::GE;
};

/// Logical AND of boolean operands.
struct And final : BinaryOpNode<And> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::And;
};
/// Logical OR of boolean operands.
struct Or final : BinaryOpNode<Or> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Or;
};
/// Logical negation.
struct Not final : ExprNode<Not> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Not;
  Expr A;
  static Expr make(Expr A);
};

/// Ternary select; the IR has no divergent control flow within expressions
/// (paper section 4.5), so conditionals are always selects.
struct Select final : ExprNode<Select> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Select;
  Expr Condition, TrueValue, FalseValue;
  static Expr make(Expr Condition, Expr TrueValue, Expr FalseValue);
};

/// A load from a flattened, one-dimensional buffer. Only appears after
/// storage flattening (section 4.4). A vector Index makes this a gather
/// (dense if the index is a stride-1 Ramp).
struct Load final : ExprNode<Load> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Load;
  std::string Name;
  Expr Index;
  static Expr make(Type T, const std::string &Name, Expr Index);
};

/// The vector [Base, Base+Stride, ..., Base+(Lanes-1)*Stride]. Introduced by
/// the vectorization pass; the paper's ramp(n) (section 4.5).
struct Ramp final : ExprNode<Ramp> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Ramp;
  Expr Base, Stride;
  int Lanes;
  static Expr make(Expr Base, Expr Stride, int Lanes);
};

/// A scalar value replicated across vector lanes.
struct Broadcast final : ExprNode<Broadcast> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Broadcast;
  Expr Value;
  int Lanes;
  static Expr make(Expr Value, int Lanes);
};

/// How a Call node resolves its callee.
enum class CallType : uint8_t {
  Halide,     ///< A call to another Func in the pipeline (pre-flattening).
  Image,      ///< A load from an input image (pre-flattening).
  Intrinsic,  ///< A compiler intrinsic (see Call::* name constants).
  PureExtern, ///< A pure external C function, e.g. sqrtf.
};

/// A call: to another pipeline stage, an input image, an intrinsic, or an
/// external function.
struct Call final : ExprNode<Call> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Call;
  std::string Name;
  std::vector<Expr> Args;
  CallType CallKind;
  static Expr make(Type T, const std::string &Name, std::vector<Expr> Args,
                   CallType CallKind);

  /// The one instrumentation intrinsic, injected after lowering by
  /// transforms/Instrument.h for Target::Profile / Target::Trace. Args
  /// are {IntImm hook id (runtime/Runtime.h's HALIDE_RUNTIME_HOOKS),
  /// StringImm stage, payload...}. Each engine evaluates the payload left
  /// to right and hands it to runtimeHook(); a valued hook evaluates to
  /// its value payload, any other hook to int32 0.
  static const char *const RuntimeHook;
};

/// A scoped value binding within an expression.
struct Let final : ExprNode<Let> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Let;
  std::string Name;
  Expr Value, Body;
  static Expr make(const std::string &Name, Expr Value, Expr Body);
};

//===----------------------------------------------------------------------===//
// Statement nodes
//===----------------------------------------------------------------------===//

/// A scoped value binding within a statement. Bounds inference (section 4.2)
/// injects these as preambles defining each stage's region to compute.
struct LetStmt final : StmtNode<LetStmt> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::LetStmt;
  std::string Name;
  Expr Value;
  Stmt Body;
  static Stmt make(const std::string &Name, Expr Value, Stmt Body);
};

/// Aborts pipeline execution with a message if the condition is false.
struct AssertStmt final : StmtNode<AssertStmt> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::AssertStmt;
  Expr Condition;
  std::string Message;
  static Stmt make(Expr Condition, const std::string &Message);
};

/// Marks the body as the production of (or consumption of) values of a Func;
/// used by bounds inference and the sliding window pass to locate stages.
struct ProducerConsumer final : StmtNode<ProducerConsumer> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::ProducerConsumer;
  std::string Name;
  bool IsProducer;
  Stmt Body;
  static Stmt make(const std::string &Name, bool IsProducer, Stmt Body);
};

/// Execution strategy of a synthesized loop; the schedule's domain order
/// markings (section 3.2) lower to these.
enum class ForType : uint8_t {
  Serial,
  Parallel,
  Vectorized,
  Unrolled,
  GPUBlock,  ///< Simulated-GPU grid block dimension.
  GPUThread, ///< Simulated-GPU thread dimension.
};

/// Is this loop type executed as a data-parallel grid dimension?
inline bool isParallelForType(ForType T) {
  return T == ForType::Parallel || T == ForType::GPUBlock ||
         T == ForType::GPUThread;
}

const char *forTypeName(ForType T);

/// A loop over [Min, Min+Extent). All loops stride by one (section 4.1).
struct For final : StmtNode<For> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::For;
  std::string Name;
  Expr MinExpr, Extent;
  ForType Kind;
  Stmt Body;
  static Stmt make(const std::string &Name, Expr MinExpr, Expr Extent,
                   ForType Kind, Stmt Body);
};

/// A store to a flattened, one-dimensional buffer (post section 4.4).
struct Store final : StmtNode<Store> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Store;
  std::string Name;
  Expr Value, Index;
  static Stmt make(const std::string &Name, Expr Value, Expr Index);
};

/// A multidimensional store to a Func's storage, before flattening.
struct Provide final : StmtNode<Provide> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Provide;
  std::string Name;
  Expr Value;
  std::vector<Expr> Args;
  static Stmt make(const std::string &Name, Expr Value,
                   std::vector<Expr> Args);
};

/// Allocation of a flattened buffer, scoped to Body (freed on exit).
struct Allocate final : StmtNode<Allocate> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Allocate;
  std::string Name;
  Type ElemType;
  std::vector<Expr> Extents;
  Stmt Body;
  /// True if this allocation lives in simulated-GPU shared (per-block)
  /// memory rather than heap memory.
  bool InSharedMemory = false;
  static Stmt make(const std::string &Name, Type ElemType,
                   std::vector<Expr> Extents, Stmt Body,
                   bool InSharedMemory = false);
};

/// Multidimensional allocation of a Func's storage over a region, before
/// flattening. Created by lowering at the store_at level (section 4.1);
/// bounds inference fills in the region; flattening turns it into Allocate.
struct Realize final : StmtNode<Realize> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Realize;
  std::string Name;
  Type ElemType;
  Region Bounds;
  Stmt Body;
  static Stmt make(const std::string &Name, Type ElemType, Region Bounds,
                   Stmt Body);
};

/// Sequential composition of two statements.
struct Block final : StmtNode<Block> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Block;
  Stmt First, Rest;
  static Stmt make(Stmt First, Stmt Rest);
  /// Chains a list into nested Blocks; asserts the list is non-empty.
  static Stmt make(const std::vector<Stmt> &Stmts);
};

/// Statement-level conditional. ElseCase may be undefined.
struct IfThenElse final : StmtNode<IfThenElse> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::IfThenElse;
  Expr Condition;
  Stmt ThenCase, ElseCase;
  static Stmt make(Expr Condition, Stmt ThenCase, Stmt ElseCase = Stmt());
};

/// Evaluates an expression for its side effects (tracing intrinsics).
struct Evaluate final : StmtNode<Evaluate> {
  static constexpr IRNodeKind StaticKind = IRNodeKind::Evaluate;
  Expr Value;
  static Stmt make(Expr Value);
};

} // namespace halide

#endif // HALIDE_IR_EXPR_H
