//===- mf/Lexer.h - Lexer for the MF language -------------------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hand-written lexer for MF source buffers. Identifiers and keywords are
/// case-insensitive (lower-cased on the way in, matching Fortran convention);
/// comments run from '!' or '#' to end of line.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_MF_LEXER_H
#define IAA_MF_LEXER_H

#include "mf/Token.h"
#include "support/Diagnostics.h"

#include <string>
#include <vector>

namespace iaa {
namespace mf {

/// Lexes a full MF buffer into a token vector (ending with Eof).
class Lexer {
public:
  Lexer(std::string Source, DiagnosticEngine &Diags);

  /// Lexes the whole buffer. Invalid characters produce diagnostics and are
  /// skipped so parsing can continue.
  std::vector<Token> lexAll();

  /// Where a comment began with "!=" after code on its line: most likely a
  /// C-style not-equal (MF spells it "/="), which the parser then reports
  /// as an error further on.
  const std::vector<SourceLoc> &bangEqualComments() const {
    return BangEqualComments;
  }

private:
  Token lexToken();
  Token makeToken(TokenKind Kind);
  char peek(unsigned Ahead = 0) const;
  char advance();
  bool atEnd() const { return Pos >= Source.size(); }
  void skipTrivia();
  SourceLoc currentLoc() const { return {Line, Col}; }

  std::string Source;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Col = 1;
  unsigned LastTokenLine = 0; ///< Line of the most recent token.
  std::vector<SourceLoc> BangEqualComments;
};

} // namespace mf
} // namespace iaa

#endif // IAA_MF_LEXER_H
