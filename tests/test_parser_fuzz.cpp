//===- tests/test_parser_fuzz.cpp - Deterministic parser smoke fuzzing ----===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// A deterministic fuzz-smoke pass over the MF parser: handcrafted malformed
/// programs plus seeded byte-level mutations of valid sources. The contract
/// under test is narrow but absolute — the parser either returns a program
/// or returns null with at least one error recorded; it never crashes,
/// never hangs, and never fails silently.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"

#include <cstdint>
#include <string>
#include <vector>

using namespace iaa;

namespace {

/// Runs one input through the parser and checks the no-silent-failure
/// contract.
void smoke(const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<mf::Program> P = mf::parseProgram(Source, Diags);
  if (!P) {
    EXPECT_TRUE(Diags.hasErrors())
        << "parser returned null without recording an error for:\n"
        << Source;
  }
}

TEST(ParserFuzz, HandcraftedMalformedPrograms) {
  const std::vector<std::string> Cases = {
      // Truncation and structure errors.
      "",
      "program",
      "program t",
      "program t\nend",       // minimal valid — must not error
      "program t\n",          // missing end
      "end",
      "program t\ninteger i\ndo i = 1, 10\nend",       // unclosed do
      "program t\ninteger i\ndo i = 1, 10\nend do",    // missing final end
      "program t\ninteger i\nif (i) then\nend",        // unclosed if
      "program t\nend do\nend",
      "program t\nelse\nend",
      "program t\nend if\nend",
      "program t\nprocedure p\nend",                   // unclosed procedure
      "program t\ncall\nend",
      "program t\ncall nowhere\nend",
      // Declaration errors.
      "program t\ninteger\nend",
      "program t\ninteger 5\nend",
      "program t\nreal a(\nend",
      "program t\nreal a()\nend",
      "program t\nreal a(0\nend",
      "program t\ninteger i, i\nend",
      "program t\nbanana i\nend",
      // Statement and expression errors.
      "program t\ninteger i\ni =\nend",
      "program t\ninteger i\ni = )\nend",
      "program t\ninteger i\ni = (1\nend",
      "program t\ninteger i\ni = 1 +\nend",
      "program t\ninteger i\ni = 1 + * 2\nend",
      "program t\ninteger i\ni = q\nend",              // undeclared
      "program t\ninteger i\nq = 1\nend",
      "program t\nreal a(5)\na(1, 2) = 0.0\nend",      // rank mismatch
      "program t\nreal a(5)\na = 0.0\nend",            // array as scalar
      "program t\ninteger i\ni = mod(1)\nend",         // arity
      "program t\ninteger i\ni = mod(1, 2, 3)\nend",
      "program t\ninteger i\ndo i = 1\nend do\nend",   // missing bound
      "program t\ninteger i\ndo i = , 10\nend do\nend",
      "program t\ndo 5 = 1, 10\nend do\nend",
      "program t\ninteger i\nmylabel mylabel: do i = 1, 2\nend do\nend",
      "program t\ninteger i\nwhile\nend",
      "program t\ninteger i\nwhile (i < 1\nend while\nend",
      // Junk and pathological inputs.
      "\0x\0y",
      "((((((((((",
      ")))))",
      "program t\n! comment only\nend",                // valid
      std::string(4096, '('),
      std::string(4096, 'x'),
      "program t\ninteger i\ni = " + std::string(512, '-') + "1\nend",
  };
  for (const std::string &Source : Cases)
    smoke(Source);
}

/// splitmix64: tiny, deterministic, well-distributed — the standard choice
/// for reproducible test-case derivation.
uint64_t splitmix64(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

TEST(ParserFuzz, SeededMutationsOfValidSources) {
  const std::string Seeds[] = {benchprogs::fig1aSource(),
                               benchprogs::fig3Source(),
                               benchprogs::fig14Source()};
  const char Replacements[] = {'(', ')', ',', '=', '+', '\n', ' ',
                               '0', 'q', ':', '!', '\t', '\0'};
  uint64_t State = 0x1aa2000ULL; // Fixed seed: the corpus never changes.
  unsigned Ran = 0;
  for (const std::string &Seed : Seeds) {
    for (int Round = 0; Round < 12; ++Round) {
      std::string Mutant = Seed;
      // 1-4 point mutations per round.
      unsigned Edits = 1 + splitmix64(State) % 4;
      for (unsigned E = 0; E < Edits; ++E) {
        size_t Pos = splitmix64(State) % Mutant.size();
        uint64_t R = splitmix64(State);
        switch (R % 3) {
        case 0: // replace
          Mutant[Pos] = Replacements[R % (sizeof(Replacements))];
          break;
        case 1: // delete
          Mutant.erase(Pos, 1 + R % 7);
          break;
        case 2: // truncate (prefixes exercise every partial construct)
          Mutant.resize(Pos);
          break;
        }
        if (Mutant.empty())
          break;
      }
      smoke(Mutant);
      ++Ran;
    }
  }
  EXPECT_GE(Ran, 36u);
}

} // namespace
