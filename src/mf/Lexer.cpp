//===- mf/Lexer.cpp - Lexer for the MF language ---------------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "mf/Lexer.h"

#include <cctype>
#include <cstdlib>
#include <unordered_map>

using namespace iaa;
using namespace iaa::mf;

const char *iaa::mf::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:         return "end of file";
  case TokenKind::Identifier:  return "identifier";
  case TokenKind::IntLiteral:  return "integer literal";
  case TokenKind::RealLiteral: return "real literal";
  case TokenKind::KwProgram:   return "'program'";
  case TokenKind::KwProcedure: return "'procedure'";
  case TokenKind::KwInteger:   return "'integer'";
  case TokenKind::KwReal:      return "'real'";
  case TokenKind::KwDo:        return "'do'";
  case TokenKind::KwWhile:     return "'while'";
  case TokenKind::KwIf:        return "'if'";
  case TokenKind::KwThen:      return "'then'";
  case TokenKind::KwElse:      return "'else'";
  case TokenKind::KwEnd:       return "'end'";
  case TokenKind::KwCall:      return "'call'";
  case TokenKind::KwAnd:       return "'and'";
  case TokenKind::KwOr:        return "'or'";
  case TokenKind::KwNot:       return "'not'";
  case TokenKind::LParen:      return "'('";
  case TokenKind::RParen:      return "')'";
  case TokenKind::Comma:       return "','";
  case TokenKind::Colon:       return "':'";
  case TokenKind::Assign:      return "'='";
  case TokenKind::Plus:        return "'+'";
  case TokenKind::Minus:       return "'-'";
  case TokenKind::Star:        return "'*'";
  case TokenKind::Slash:       return "'/'";
  case TokenKind::EqEq:        return "'=='";
  case TokenKind::NotEq:       return "'/='";
  case TokenKind::Less:        return "'<'";
  case TokenKind::LessEq:      return "'<='";
  case TokenKind::Greater:     return "'>'";
  case TokenKind::GreaterEq:   return "'>='";
  }
  return "unknown token";
}

static const std::unordered_map<std::string, TokenKind> &keywordTable() {
  static const std::unordered_map<std::string, TokenKind> Table = {
      {"program", TokenKind::KwProgram},
      {"procedure", TokenKind::KwProcedure},
      {"integer", TokenKind::KwInteger},
      {"real", TokenKind::KwReal},
      {"do", TokenKind::KwDo},
      {"while", TokenKind::KwWhile},
      {"if", TokenKind::KwIf},
      {"then", TokenKind::KwThen},
      {"else", TokenKind::KwElse},
      {"end", TokenKind::KwEnd},
      {"call", TokenKind::KwCall},
      {"and", TokenKind::KwAnd},
      {"or", TokenKind::KwOr},
      {"not", TokenKind::KwNot},
  };
  return Table;
}

Lexer::Lexer(std::string Source, DiagnosticEngine &Diags)
    : Source(std::move(Source)), Diags(Diags) {}

char Lexer::peek(unsigned Ahead) const {
  return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

void Lexer::skipTrivia() {
  while (!atEnd()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    if (C == '!' || C == '#') {
      if (C == '!' && peek(1) == '=' && LastTokenLine == Line)
        BangEqualComments.push_back(currentLoc());
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    break;
  }
}

Token Lexer::makeToken(TokenKind Kind) {
  Token T;
  T.Kind = Kind;
  T.Loc = currentLoc();
  LastTokenLine = Line;
  return T;
}

Token Lexer::lexToken() {
  skipTrivia();
  if (atEnd())
    return makeToken(TokenKind::Eof);

  Token T = makeToken(TokenKind::Eof);
  char C = peek();

  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
    std::string Text;
    while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                        peek() == '_'))
      Text += static_cast<char>(
          std::tolower(static_cast<unsigned char>(advance())));
    auto It = keywordTable().find(Text);
    if (It != keywordTable().end()) {
      T.Kind = It->second;
    } else {
      T.Kind = TokenKind::Identifier;
      T.Text = std::move(Text);
    }
    return T;
  }

  if (std::isdigit(static_cast<unsigned char>(C))) {
    std::string Digits;
    bool IsReal = false;
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
      Digits += advance();
    // A '.' followed by a digit makes this a real literal; a bare '.' (as in
    // "1." Fortran style) also does.
    if (peek() == '.' &&
        !std::isalpha(static_cast<unsigned char>(peek(1)))) {
      IsReal = true;
      Digits += advance();
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
        Digits += advance();
    }
    if (peek() == 'e' || peek() == 'E') {
      char Next = peek(1);
      if (std::isdigit(static_cast<unsigned char>(Next)) || Next == '+' ||
          Next == '-') {
        IsReal = true;
        Digits += advance();
        if (peek() == '+' || peek() == '-')
          Digits += advance();
        while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
          Digits += advance();
      }
    }
    if (IsReal) {
      T.Kind = TokenKind::RealLiteral;
      T.RealValue = std::strtod(Digits.c_str(), nullptr);
    } else {
      T.Kind = TokenKind::IntLiteral;
      T.IntValue = std::strtoll(Digits.c_str(), nullptr, 10);
    }
    return T;
  }

  advance();
  switch (C) {
  case '(': T.Kind = TokenKind::LParen; return T;
  case ')': T.Kind = TokenKind::RParen; return T;
  case ',': T.Kind = TokenKind::Comma; return T;
  case ':': T.Kind = TokenKind::Colon; return T;
  case '+': T.Kind = TokenKind::Plus; return T;
  case '-': T.Kind = TokenKind::Minus; return T;
  case '*': T.Kind = TokenKind::Star; return T;
  case '=':
    if (peek() == '=') {
      advance();
      T.Kind = TokenKind::EqEq;
    } else {
      T.Kind = TokenKind::Assign;
    }
    return T;
  case '/':
    if (peek() == '=') {
      advance();
      T.Kind = TokenKind::NotEq;
    } else {
      T.Kind = TokenKind::Slash;
    }
    return T;
  case '<':
    if (peek() == '=') {
      advance();
      T.Kind = TokenKind::LessEq;
    } else {
      T.Kind = TokenKind::Less;
    }
    return T;
  case '>':
    if (peek() == '=') {
      advance();
      T.Kind = TokenKind::GreaterEq;
    } else {
      T.Kind = TokenKind::Greater;
    }
    return T;
  default:
    Diags.error(T.Loc, std::string("invalid character '") + C + "'");
    return lexToken();
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  for (;;) {
    Tokens.push_back(lexToken());
    if (Tokens.back().is(TokenKind::Eof))
      break;
  }
  return Tokens;
}
