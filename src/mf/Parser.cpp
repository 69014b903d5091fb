//===- mf/Parser.cpp - Recursive-descent parser for MF --------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "mf/Parser.h"

#include "mf/Lexer.h"
#include "support/Statistic.h"
#include "support/Trace.h"

#include <cassert>

using namespace iaa;
using namespace iaa::mf;
using namespace iaa::mf::detail;

#define IAA_STAT_GROUP "frontend"
IAA_STAT(lex_tokens, "Tokens produced by the lexer");
IAA_STAT(parse_programs, "Programs parsed");
IAA_STAT(parse_stmts, "Statements parsed");

std::unique_ptr<Program> iaa::mf::parseProgram(const std::string &Source,
                                               DiagnosticEngine &Diags) {
  trace::TraceScope Span("parse-program", "frontend");
  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens;
  {
    trace::TraceScope LexSpan("lex", "frontend");
    Tokens = Lex.lexAll();
    lex_tokens += Tokens.size();
  }
  std::unique_ptr<Program> Prog;
  {
    trace::TraceScope ParseSpan("parse", "frontend");
    Parser P(std::move(Tokens), Diags);
    Prog = P.parse();
  }
  if (Diags.hasErrors()) {
    // The error usually lands past the line whose "!=" began a comment.
    for (SourceLoc Loc : Lex.bangEqualComments())
      Diags.note(Loc, "'!=' starts a comment here; MF's not-equal operator "
                      "is '/='");
    return nullptr;
  }
  if (Prog) {
    ++parse_programs;
    parse_stmts += Prog->numStmts();
    Span.arg("stmts", std::to_string(Prog->numStmts()));
  }
  return Prog;
}

Parser::Parser(std::vector<Token> Tokens, DiagnosticEngine &Diags)
    : Tokens(std::move(Tokens)), Diags(Diags) {
  assert(!this->Tokens.empty() && this->Tokens.back().is(TokenKind::Eof) &&
         "token stream must end with Eof");
}

const Token &Parser::peek(unsigned Ahead) const {
  size_t Idx = Pos + Ahead;
  if (Idx >= Tokens.size())
    Idx = Tokens.size() - 1; // Eof
  return Tokens[Idx];
}

Token Parser::consume() {
  Token T = Tokens[Pos];
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::match(TokenKind Kind) {
  if (!current().is(Kind))
    return false;
  consume();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (match(Kind))
    return true;
  Diags.error(current().Loc, std::string("expected ") + tokenKindName(Kind) +
                                 " " + Context + ", found " +
                                 tokenKindName(current().Kind));
  return false;
}

void Parser::expectEnd(TokenKind Opener, const char *What) {
  expect(TokenKind::KwEnd, What);
  // 'end do' / 'end while' / 'end if' — the trailing keyword is required so
  // nesting errors are caught close to their source.
  if (!match(Opener))
    Diags.error(current().Loc,
                std::string("expected the matching keyword after 'end' ") +
                    What);
}

std::unique_ptr<Program> Parser::parse() {
  auto P = std::make_unique<Program>();

  expect(TokenKind::KwProgram, "at start of program");
  if (current().is(TokenKind::Identifier))
    consume(); // Program name is decorative.

  // Declarations.
  while (current().is(TokenKind::KwInteger) ||
         current().is(TokenKind::KwReal))
    parseDecl(*P);

  // Procedures.
  while (current().is(TokenKind::KwProcedure)) {
    consume();
    SourceLoc NameLoc = current().Loc;
    std::string Name = current().Text;
    if (!expect(TokenKind::Identifier, "as procedure name"))
      break;
    Procedure *Proc = P->createProcedure(Name);
    if (!Proc) {
      Diags.error(NameLoc, "redefinition of procedure '" + Name + "'");
      Proc = P->findProcedure(Name);
    }
    parseProcedureBody(*P, Proc);
  }

  // Main body.
  Procedure *Main = P->createProcedure("main");
  Main->body() = parseStmtList(*P);
  expect(TokenKind::KwEnd, "at end of program");

  // Resolve call targets now that every procedure has been seen.
  P->forEachStmt([&](Stmt *S) {
    auto *CS = dyn_cast<CallStmt>(S);
    if (!CS)
      return;
    Procedure *Callee = P->findProcedure(CS->calleeName());
    if (!Callee) {
      Diags.error(CS->loc(), "call to undefined procedure '" +
                                 CS->calleeName() + "'");
      return;
    }
    CS->setCallee(Callee);
  });

  P->relinkParents();
  return P;
}

void Parser::parseDecl(Program &P) {
  ScalarKind Elem = current().is(TokenKind::KwInteger) ? ScalarKind::Int
                                                       : ScalarKind::Real;
  consume();
  do {
    SourceLoc NameLoc = current().Loc;
    std::string Name = current().Text;
    if (!expect(TokenKind::Identifier, "in declaration"))
      return;
    std::vector<const Expr *> Extents;
    if (match(TokenKind::LParen)) {
      do {
        Extents.push_back(parseExpr(P));
      } while (match(TokenKind::Comma));
      expect(TokenKind::RParen, "after array extents");
      if (Extents.size() > 2)
        Diags.error(NameLoc, "MF arrays have rank 1 or 2");
    }
    if (!P.declareSymbol(Name, Elem, std::move(Extents)))
      Diags.error(NameLoc, "redeclaration of '" + Name + "'");
  } while (match(TokenKind::Comma));
}

void Parser::parseProcedureBody(Program &P, Procedure *Proc) {
  StmtList Body = parseStmtList(P);
  if (Proc)
    Proc->body() = std::move(Body);
  expect(TokenKind::KwEnd, "at end of procedure");
}

bool Parser::atStmtStart() const {
  switch (current().Kind) {
  case TokenKind::KwDo:
  case TokenKind::KwWhile:
  case TokenKind::KwIf:
  case TokenKind::KwCall:
  case TokenKind::Identifier:
    return true;
  default:
    return false;
  }
}

StmtList Parser::parseStmtList(Program &P) {
  StmtList Body;
  while (atStmtStart()) {
    Stmt *S = parseStmt(P);
    if (!S)
      break;
    Body.push_back(S);
  }
  return Body;
}

Stmt *Parser::parseStmt(Program &P) {
  // Labeled do loop: IDENT ':' 'do' ...
  if (current().is(TokenKind::Identifier) && peek(1).is(TokenKind::Colon)) {
    std::string Label = current().Text;
    consume();
    consume();
    if (!current().is(TokenKind::KwDo)) {
      Diags.error(current().Loc, "only do loops can be labeled");
      return nullptr;
    }
    consume();
    return parseDo(P, std::move(Label));
  }

  switch (current().Kind) {
  case TokenKind::KwDo:
    consume();
    return parseDo(P, "");
  case TokenKind::KwWhile:
    consume();
    return parseWhile(P);
  case TokenKind::KwIf:
    consume();
    return parseIf(P);
  case TokenKind::KwCall:
    consume();
    return parseCall(P);
  case TokenKind::Identifier:
    return parseAssign(P);
  default:
    Diags.error(current().Loc, "expected a statement");
    return nullptr;
  }
}

Stmt *Parser::parseDo(Program &P, std::string Label) {
  SourceLoc Loc = current().Loc;
  std::string IndexName = current().Text;
  if (!expect(TokenKind::Identifier, "as do-loop index"))
    return nullptr;
  Symbol *Index = P.findSymbol(IndexName);
  if (!Index) {
    Diags.error(Loc, "undeclared loop index '" + IndexName + "'");
    return nullptr;
  }
  if (Index->isArray() || Index->elementKind() != ScalarKind::Int)
    Diags.error(Loc, "do-loop index '" + IndexName +
                         "' must be an integer scalar");
  expect(TokenKind::Assign, "after do-loop index");
  const Expr *Lower = parseExpr(P);
  expect(TokenKind::Comma, "between do-loop bounds");
  const Expr *Upper = parseExpr(P);
  const Expr *Step = nullptr;
  if (match(TokenKind::Comma))
    Step = parseExpr(P);
  StmtList Body = parseStmtList(P);
  expectEnd(TokenKind::KwDo, "to close the do loop");
  return P.makeDo(Index, Lower, Upper, Step, std::move(Body),
                  std::move(Label), Loc);
}

Stmt *Parser::parseWhile(Program &P) {
  SourceLoc Loc = current().Loc;
  expect(TokenKind::LParen, "after 'while'");
  const Expr *Cond = parseExpr(P);
  expect(TokenKind::RParen, "after while condition");
  StmtList Body = parseStmtList(P);
  expectEnd(TokenKind::KwWhile, "to close the while loop");
  return P.makeWhile(Cond, std::move(Body), Loc);
}

Stmt *Parser::parseIf(Program &P) {
  SourceLoc Loc = current().Loc;
  expect(TokenKind::LParen, "after 'if'");
  const Expr *Cond = parseExpr(P);
  expect(TokenKind::RParen, "after if condition");
  expect(TokenKind::KwThen, "after if condition");
  StmtList Then = parseStmtList(P);
  StmtList Else;
  if (match(TokenKind::KwElse))
    Else = parseStmtList(P);
  expectEnd(TokenKind::KwIf, "to close the if statement");
  return P.makeIf(Cond, std::move(Then), std::move(Else), Loc);
}

Stmt *Parser::parseCall(Program &P) {
  SourceLoc Loc = current().Loc;
  std::string Name = current().Text;
  if (!expect(TokenKind::Identifier, "as call target"))
    return nullptr;
  return P.makeCall(std::move(Name), Loc);
}

Stmt *Parser::parseAssign(Program &P) {
  SourceLoc Loc = current().Loc;
  const Expr *LHS = parseReference(P);
  if (!LHS)
    return nullptr;
  expect(TokenKind::Assign, "in assignment");
  const Expr *RHS = parseExpr(P);
  if (!RHS)
    return nullptr;
  return P.makeAssign(LHS, RHS, Loc);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

const Expr *Parser::parseExpr(Program &P) { return parseOr(P); }

const Expr *Parser::parseOr(Program &P) {
  const Expr *E = parseAnd(P);
  while (current().is(TokenKind::KwOr)) {
    SourceLoc Loc = consume().Loc;
    E = P.makeBinary(BinaryOp::Or, E, parseAnd(P), Loc);
  }
  return E;
}

const Expr *Parser::parseAnd(Program &P) {
  const Expr *E = parseNot(P);
  while (current().is(TokenKind::KwAnd)) {
    SourceLoc Loc = consume().Loc;
    E = P.makeBinary(BinaryOp::And, E, parseNot(P), Loc);
  }
  return E;
}

const Expr *Parser::parseNot(Program &P) {
  if (current().is(TokenKind::KwNot)) {
    SourceLoc Loc = consume().Loc;
    return P.makeUnary(UnaryOp::Not, parseNot(P), Loc);
  }
  return parseComparison(P);
}

const Expr *Parser::parseComparison(Program &P) {
  const Expr *E = parseAdditive(P);
  BinaryOp Op;
  switch (current().Kind) {
  case TokenKind::EqEq:      Op = BinaryOp::Eq; break;
  case TokenKind::NotEq:     Op = BinaryOp::Ne; break;
  case TokenKind::Less:      Op = BinaryOp::Lt; break;
  case TokenKind::LessEq:    Op = BinaryOp::Le; break;
  case TokenKind::Greater:   Op = BinaryOp::Gt; break;
  case TokenKind::GreaterEq: Op = BinaryOp::Ge; break;
  default:
    return E;
  }
  SourceLoc Loc = consume().Loc;
  return P.makeBinary(Op, E, parseAdditive(P), Loc);
}

const Expr *Parser::parseAdditive(Program &P) {
  const Expr *E = parseMultiplicative(P);
  for (;;) {
    BinaryOp Op;
    if (current().is(TokenKind::Plus))
      Op = BinaryOp::Add;
    else if (current().is(TokenKind::Minus))
      Op = BinaryOp::Sub;
    else
      return E;
    SourceLoc Loc = consume().Loc;
    E = P.makeBinary(Op, E, parseMultiplicative(P), Loc);
  }
}

const Expr *Parser::parseMultiplicative(Program &P) {
  const Expr *E = parseUnary(P);
  for (;;) {
    BinaryOp Op;
    if (current().is(TokenKind::Star))
      Op = BinaryOp::Mul;
    else if (current().is(TokenKind::Slash))
      Op = BinaryOp::Div;
    else
      return E;
    SourceLoc Loc = consume().Loc;
    E = P.makeBinary(Op, E, parseUnary(P), Loc);
  }
}

const Expr *Parser::parseUnary(Program &P) {
  if (current().is(TokenKind::Minus)) {
    SourceLoc Loc = consume().Loc;
    return P.makeUnary(UnaryOp::Neg, parseUnary(P), Loc);
  }
  if (current().is(TokenKind::Plus)) {
    consume();
    return parseUnary(P);
  }
  return parsePrimary(P);
}

const Expr *Parser::parsePrimary(Program &P) {
  const Token &T = current();
  switch (T.Kind) {
  case TokenKind::IntLiteral: {
    Token Lit = consume();
    return P.makeIntLit(Lit.IntValue, Lit.Loc);
  }
  case TokenKind::RealLiteral: {
    Token Lit = consume();
    return P.makeRealLit(Lit.RealValue, Lit.Loc);
  }
  case TokenKind::LParen: {
    consume();
    const Expr *E = parseExpr(P);
    expect(TokenKind::RParen, "after parenthesized expression");
    return E;
  }
  case TokenKind::Identifier:
    return parseReference(P);
  default:
    Diags.error(T.Loc, std::string("expected an expression, found ") +
                           tokenKindName(T.Kind));
    consume();
    return P.makeIntLit(0, T.Loc);
  }
}

const Expr *Parser::parseReference(Program &P) {
  Token Name = consume();
  assert(Name.is(TokenKind::Identifier) && "reference must be an identifier");

  // Binary intrinsics spelled like calls.
  if ((Name.Text == "min" || Name.Text == "max" || Name.Text == "mod") &&
      current().is(TokenKind::LParen) && !P.findSymbol(Name.Text)) {
    consume();
    const Expr *A = parseExpr(P);
    expect(TokenKind::Comma, "between intrinsic arguments");
    const Expr *B = parseExpr(P);
    expect(TokenKind::RParen, "after intrinsic arguments");
    BinaryOp Op = Name.Text == "min"   ? BinaryOp::Min
                  : Name.Text == "max" ? BinaryOp::Max
                                       : BinaryOp::Mod;
    return P.makeBinary(Op, A, B, Name.Loc);
  }

  Symbol *Sym = P.findSymbol(Name.Text);
  if (!Sym) {
    Diags.error(Name.Loc, "use of undeclared variable '" + Name.Text + "'");
    Sym = P.declareSymbol(Name.Text, ScalarKind::Int, {});
  }

  if (match(TokenKind::LParen)) {
    std::vector<const Expr *> Subs;
    do {
      Subs.push_back(parseExpr(P));
    } while (match(TokenKind::Comma));
    expect(TokenKind::RParen, "after array subscripts");
    if (!Sym->isArray()) {
      Diags.error(Name.Loc, "'" + Name.Text + "' is not an array");
      return P.makeVarRef(Sym, Name.Loc);
    }
    if (Subs.size() != Sym->rank())
      Diags.error(Name.Loc, "'" + Name.Text + "' has rank " +
                                std::to_string(Sym->rank()) + " but " +
                                std::to_string(Subs.size()) +
                                " subscripts were given");
    return P.makeArrayRef(Sym, std::move(Subs), Name.Loc);
  }

  if (Sym->isArray())
    Diags.error(Name.Loc,
                "array '" + Name.Text + "' used without subscripts");
  return P.makeVarRef(Sym, Name.Loc);
}
