//===- tests/test_parser.cpp - MF lexer and parser tests ------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "mf/Lexer.h"

using namespace iaa;
using namespace iaa::mf;
using iaa::test::parseOrDie;
using iaa::test::parseExpectingErrors;

TEST(Lexer, BasicTokens) {
  DiagnosticEngine Diags;
  Lexer L("do i = 1, n x(i) = y(i) + 2.5 end do", Diags);
  std::vector<Token> Toks = L.lexAll();
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_GE(Toks.size(), 10u);
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwDo);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[1].Text, "i");
  EXPECT_EQ(Toks[2].Kind, TokenKind::Assign);
  EXPECT_EQ(Toks[3].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[3].IntValue, 1);
  EXPECT_EQ(Toks.back().Kind, TokenKind::Eof);
}

TEST(Lexer, CaseInsensitiveKeywords) {
  DiagnosticEngine Diags;
  Lexer L("DO While IF Then", Diags);
  std::vector<Token> Toks = L.lexAll();
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwDo);
  EXPECT_EQ(Toks[1].Kind, TokenKind::KwWhile);
  EXPECT_EQ(Toks[2].Kind, TokenKind::KwIf);
  EXPECT_EQ(Toks[3].Kind, TokenKind::KwThen);
}

TEST(Lexer, CommentsSkipped) {
  DiagnosticEngine Diags;
  Lexer L("x ! this is a comment\ny # another\nz", Diags);
  std::vector<Token> Toks = L.lexAll();
  ASSERT_EQ(Toks.size(), 4u); // x y z eof
  EXPECT_EQ(Toks[0].Text, "x");
  EXPECT_EQ(Toks[1].Text, "y");
  EXPECT_EQ(Toks[2].Text, "z");
}

TEST(Lexer, RealLiterals) {
  DiagnosticEngine Diags;
  Lexer L("1.5 2e3 7", Diags);
  std::vector<Token> Toks = L.lexAll();
  EXPECT_EQ(Toks[0].Kind, TokenKind::RealLiteral);
  EXPECT_DOUBLE_EQ(Toks[0].RealValue, 1.5);
  EXPECT_EQ(Toks[1].Kind, TokenKind::RealLiteral);
  EXPECT_DOUBLE_EQ(Toks[1].RealValue, 2000.0);
  EXPECT_EQ(Toks[2].Kind, TokenKind::IntLiteral);
}

TEST(Lexer, ComparisonOperators) {
  DiagnosticEngine Diags;
  Lexer L("< <= > >= == /=", Diags);
  std::vector<Token> Toks = L.lexAll();
  EXPECT_EQ(Toks[0].Kind, TokenKind::Less);
  EXPECT_EQ(Toks[1].Kind, TokenKind::LessEq);
  EXPECT_EQ(Toks[2].Kind, TokenKind::Greater);
  EXPECT_EQ(Toks[3].Kind, TokenKind::GreaterEq);
  EXPECT_EQ(Toks[4].Kind, TokenKind::EqEq);
  EXPECT_EQ(Toks[5].Kind, TokenKind::NotEq);
}

TEST(Lexer, TracksLineNumbers) {
  DiagnosticEngine Diags;
  Lexer L("a\nb\nc", Diags);
  std::vector<Token> Toks = L.lexAll();
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[2].Loc.Line, 3u);
}

TEST(Parser, MinimalProgram) {
  auto P = parseOrDie("program t\ninteger n\nn = 4\nend");
  ASSERT_NE(P->mainProcedure(), nullptr);
  EXPECT_EQ(P->mainProcedure()->body().size(), 1u);
  EXPECT_NE(P->findSymbol("n"), nullptr);
}

TEST(Parser, Declarations) {
  auto P = parseOrDie(R"(program t
    integer n, m
    real x(100), z(10, 20)
    integer ind(50)
    n = 1
  end)");
  Symbol *X = P->findSymbol("x");
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(X->rank(), 1u);
  EXPECT_EQ(X->elementKind(), ScalarKind::Real);
  Symbol *Z = P->findSymbol("z");
  ASSERT_NE(Z, nullptr);
  EXPECT_EQ(Z->rank(), 2u);
  Symbol *Ind = P->findSymbol("ind");
  ASSERT_NE(Ind, nullptr);
  EXPECT_EQ(Ind->elementKind(), ScalarKind::Int);
}

TEST(Parser, DoLoopWithLabel) {
  auto P = parseOrDie(R"(program t
    integer n, i
    real x(100)
    n = 100
    do140: do i = 1, n
      x(i) = 0
    end do
  end)");
  DoStmt *L = P->findLoop("do140");
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->indexVar()->name(), "i");
  EXPECT_EQ(L->body().size(), 1u);
  EXPECT_EQ(L->label(), "do140");
}

TEST(Parser, NestedControlFlow) {
  auto P = parseOrDie(R"(program t
    integer n, i, j, p
    real x(100)
    n = 10
    p = 0
    do i = 1, n
      if (i > 3) then
        p = p + 1
        x(p) = 1
      else
        x(1) = 2
      end if
      while (p > 0)
        p = p - 1
      end while
    end do
  end)");
  const StmtList &Body = P->mainProcedure()->body();
  ASSERT_EQ(Body.size(), 3u);
  auto *Loop = dyn_cast<DoStmt>(Body[2]);
  ASSERT_NE(Loop, nullptr);
  ASSERT_EQ(Loop->body().size(), 2u);
  EXPECT_TRUE(isa<IfStmt>(Loop->body()[0]));
  EXPECT_TRUE(isa<WhileStmt>(Loop->body()[1]));
  auto *If = cast<IfStmt>(Loop->body()[0]);
  EXPECT_EQ(If->thenBody().size(), 2u);
  EXPECT_EQ(If->elseBody().size(), 1u);
}

TEST(Parser, ProceduresAndCalls) {
  auto P = parseOrDie(R"(program t
    integer n
    procedure setup
      n = 5
    end
    call setup
  end)");
  Procedure *Setup = P->findProcedure("setup");
  ASSERT_NE(Setup, nullptr);
  auto *CS = dyn_cast<CallStmt>(P->mainProcedure()->body()[0]);
  ASSERT_NE(CS, nullptr);
  EXPECT_EQ(CS->callee(), Setup);
}

TEST(Parser, IntrinsicsParseAsBinary) {
  auto P = parseOrDie(R"(program t
    integer a, b, c
    a = min(b, 3)
    b = max(a, c)
    c = mod(a, 7)
  end)");
  auto *AS = cast<AssignStmt>(P->mainProcedure()->body()[0]);
  auto *BE = dyn_cast<BinaryExpr>(AS->rhs());
  ASSERT_NE(BE, nullptr);
  EXPECT_EQ(BE->op(), BinaryOp::Min);
}

TEST(Parser, OperatorPrecedence) {
  auto P = parseOrDie(R"(program t
    integer a, b, c
    a = b + c * 2
  end)");
  auto *AS = cast<AssignStmt>(P->mainProcedure()->body()[0]);
  auto *Add = dyn_cast<BinaryExpr>(AS->rhs());
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add->op(), BinaryOp::Add);
  auto *Mul = dyn_cast<BinaryExpr>(Add->rhs());
  ASSERT_NE(Mul, nullptr);
  EXPECT_EQ(Mul->op(), BinaryOp::Mul);
}

TEST(Parser, ParentLinks) {
  auto P = parseOrDie(R"(program t
    integer i, n
    real x(10)
    n = 5
    do i = 1, n
      if (i > 1) then
        x(i) = 0
      end if
    end do
  end)");
  auto *Loop = cast<DoStmt>(P->mainProcedure()->body()[1]);
  auto *If = cast<IfStmt>(Loop->body()[0]);
  auto *Assign = cast<AssignStmt>(If->thenBody()[0]);
  EXPECT_EQ(Assign->parent(), If);
  EXPECT_EQ(If->parent(), Loop);
  EXPECT_EQ(Loop->parent(), nullptr);
  EXPECT_EQ(Assign->procedure(), P->mainProcedure());
}

TEST(Parser, ErrorUndeclaredVariable) {
  parseExpectingErrors("program t\nx = 1\nend");
}

TEST(Parser, ErrorRedeclaration) {
  parseExpectingErrors("program t\ninteger n\nreal n\nn = 1\nend");
}

TEST(Parser, ErrorRankMismatch) {
  parseExpectingErrors(R"(program t
    real z(10, 10)
    z(1) = 0
  end)");
}

TEST(Parser, ErrorSubscriptOnScalar) {
  parseExpectingErrors("program t\ninteger n\nn(1) = 0\nend");
}

TEST(Parser, ErrorArrayWithoutSubscript) {
  parseExpectingErrors("program t\nreal x(5)\ninteger a\na = x\nend");
}

TEST(Parser, ErrorUnknownCallTarget) {
  parseExpectingErrors("program t\ncall nosuch\nend");
}

TEST(Parser, ErrorNonIntegerLoopIndex) {
  parseExpectingErrors(R"(program t
    real r
    do r = 1, 5
    end do
  end)");
}

TEST(Parser, ErrorLabelOnNonLoop) {
  parseExpectingErrors(R"(program t
    integer a
    lab: a = 1
  end)");
}

TEST(Parser, BangEqualGetsANoteAtTheComment) {
  // '!' starts a comment anywhere on a line, so C's "!=" swallows the rest
  // of the condition and the error lands on the next line. A note points
  // back at the "!=" and names MF's operator.
  DiagnosticEngine Diags;
  EXPECT_EQ(parseProgram("program t\n"
                         "  integer t, s\n"
                         "  t = 1\n"
                         "  s = 2\n"
                         "  if (t != s) then\n"
                         "    t = s\n"
                         "  end if\n"
                         "end\n",
                         Diags),
            nullptr);
  ASSERT_TRUE(Diags.hasErrors());
  const Diagnostic &Last = Diags.diagnostics().back();
  EXPECT_EQ(Last.Kind, DiagKind::Note);
  EXPECT_EQ(Last.Loc.Line, 5u);
  EXPECT_EQ(Last.Loc.Col, 9u);
  EXPECT_NE(Last.Message.find("'/='"), std::string::npos) << Last.Message;

  // A program that parses keeps every comment silent, "!=" included.
  DiagnosticEngine Clean;
  EXPECT_NE(parseProgram("program t\n"
                         "  integer t\n"
                         "  t = 1 != a comment, not an operator\n"
                         "end\n",
                         Clean),
            nullptr);
  EXPECT_TRUE(Clean.diagnostics().empty()) << Clean.str();
}

TEST(Parser, RoundTripPrinting) {
  const char *Src = R"(program t
    integer i, n, p
    real x(100)
    n = 10
    k1: do i = 1, n
      x(i) = x(i) + 1.5
    end do
  end)";
  auto P = parseOrDie(Src);
  std::string Printed = P->str();
  // The printed program must re-parse to the same shape.
  auto P2 = parseOrDie(Printed);
  EXPECT_EQ(P2->mainProcedure()->body().size(),
            P->mainProcedure()->body().size());
  EXPECT_NE(P2->findLoop("k1"), nullptr);
}
