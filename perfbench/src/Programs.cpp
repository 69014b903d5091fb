//===- perfbench/src/Programs.cpp - Seeded MF inputs and the native twin --===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include <algorithm>
#include <barrier>
#include <map>
#include <numeric>
#include <thread>

namespace perfbench {

namespace {

/// Replaces every "@KEY@" in \p T by its value.
std::string subst(std::string T, const std::map<std::string, std::string> &V) {
  for (const auto &[Key, Value] : V) {
    std::string Needle = "@" + Key + "@";
    for (size_t Pos = 0; (Pos = T.find(Needle, Pos)) != std::string::npos;
         Pos += Value.size())
      T.replace(Pos, Needle.size(), Value);
  }
  return T;
}

std::string num(int64_t V) { return std::to_string(V); }

/// A multiplier in [Lo, Hi] coprime to \p N, so i -> mod(i*M + A, N) + 1 is
/// a permutation of 1..N.
int64_t coprime(Rng &R, int64_t N, int64_t Lo, int64_t Hi) {
  for (;;) {
    int64_t M = R.range(Lo, Hi);
    if (std::gcd(M, N) == 1)
      return M;
  }
}

} // namespace

ScatterShape scatterShape(uint64_t Seed) {
  Rng R(Seed ^ 0x5ca77e5ULL);
  ScatterShape S;
  S.N = 400000 + R.range(0, 999);
  S.Reps = 4;
  for (int P = 0; P < 3; ++P) {
    S.Mul.push_back(coprime(R, S.N, 2048, 4095));
    S.Add.push_back(R.range(0, S.N - 1));
  }
  return S;
}

std::string scatterSource(const ScatterShape &S) {
  std::string Src = subst(R"(program pscatter
  integer i, r, p, n, mulk, addk
  integer ind(@N@), mul(@P@), add(@P@)
  real x(@N@), y(@N@)
  n = @N@
)",
                          {{"N", num(S.N)}, {"P", num(S.Mul.size())}});
  for (size_t P = 0; P < S.Mul.size(); ++P)
    Src += "  mul(" + num(P + 1) + ") = " + num(S.Mul[P]) + "\n  add(" +
           num(P + 1) + ") = " + num(S.Add[P]) + "\n";
  Src += subst(R"(  init: do i = 1, n
    x(i) = mod(i, 17) * 0.5
    y(i) = mod(i, 9) * 0.25
  end do
  phase: do p = 1, @P@
    mulk = mul(p)
    addk = add(p)
    perm: do i = 1, n
      ind(i) = mod(i * mulk + addk, n) + 1
    end do
    rep: do r = 1, @R@
      scat: do i = 1, n
        x(ind(i)) = x(ind(i)) + y(i) * 0.5
      end do
    end do
  end do
end
)",
               {{"P", num(S.Mul.size())}, {"R", num(S.Reps)}});
  return Src;
}

std::vector<double> nativeScatter(const ScatterShape &S, unsigned Workers,
                                  double &ScatterSeconds) {
  const int64_t N = S.N;
  std::vector<double> X(N), Y(N);
  std::vector<int64_t> Ind(N);
  for (int64_t I = 1; I <= N; ++I) {
    X[I - 1] = double(I % 17) * 0.5;
    Y[I - 1] = double(I % 9) * 0.25;
  }
  Workers = std::max(1u, Workers);
  std::barrier Sync(Workers);
  Clock::time_point T0;
  auto Body = [&](unsigned W) {
    int64_t Lo = 1 + N * W / Workers, Up = N * (W + 1) / Workers;
    for (size_t P = 0; P < S.Mul.size(); ++P) {
      for (int64_t I = Lo; I <= Up; ++I)
        Ind[I - 1] = (I * S.Mul[P] + S.Add[P]) % N + 1;
      Sync.arrive_and_wait();
      if (W == 0)
        T0 = Clock::now();
      for (int64_t Rep = 0; Rep < S.Reps; ++Rep) {
        for (int64_t I = Lo; I <= Up; ++I)
          X[Ind[I - 1] - 1] = X[Ind[I - 1] - 1] + Y[I - 1] * 0.5;
        Sync.arrive_and_wait();
      }
      if (W == 0)
        ScatterSeconds += since(T0);
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned W = 1; W < Workers; ++W)
    Pool.emplace_back(Body, W);
  Body(0);
  for (std::thread &T : Pool)
    T.join();
  return X;
}

namespace {

/// One generated kernel: declarations, statements, and the labels of its
/// irregular loops. "@K@" is the instance suffix.
struct Kernel {
  const char *Decls;
  const char *Body;
  std::vector<const char *> Loops;
};

const Kernel Kernels[] = {
    // Fig. 1(a): xa() consecutively written in a while loop, then read
    // back over the written section.
    {"  integer p@K@, lnk@K@(@M@, @NK@), cnd@K@(@NK@, @M@)\n"
     "  real xa@K@(@M2@), ya@K@(@M@), dz@K@(@NK@, @M2@)\n",
     R"(  do i = 1, @M@
    ya@K@(i) = mod(i * @C1@, 7) * 0.5
  end do
  do k = 1, @NK@
    do i = 1, @M@
      lnk@K@(i, k) = i + 1
      if (i + k > @M@) then
        lnk@K@(i, k) = 0
      end if
      cnd@K@(k, i) = mod(i + k, @C2@)
    end do
    lnk@K@(@M@, k) = 0
  end do
  dok@K@: do k = 1, @NK@
    p@K@ = 0
    i = lnk@K@(1, k)
    while (i /= 0)
      p@K@ = p@K@ + 1
      xa@K@(p@K@) = ya@K@(i) + 1.0
      if (cnd@K@(k, i) > 0) then
        p@K@ = p@K@ + 1
        xa@K@(p@K@) = ya@K@(i) * 0.5
      end if
      i = lnk@K@(i, k)
    end while
    do j = 1, p@K@
      dz@K@(k, j) = xa@K@(j)
    end do
  end do
)",
     {"dok"}},
    // Fig. 1(b): t() used as an array stack reset per outer iteration.
    {"  integer s@K@\n  real t@K@(@M2@), wk@K@(@M@), rs@K@(@NK@)\n",
     R"(  do j = 1, @M@
    wk@K@(j) = mod(j * @C1@, 7) * 0.5
  end do
  do i = 1, @NK@
    rs@K@(i) = 0.0
  end do
  doi@K@: do i = 1, @NK@
    s@K@ = 0
    s@K@ = s@K@ + 1
    t@K@(s@K@) = i * 1.0
    do j = 1, @M@
      s@K@ = s@K@ + 1
      t@K@(s@K@) = wk@K@(j)
      if (wk@K@(j) > 1.0) then
        if (s@K@ >= 1) then
          rs@K@(i) = rs@K@(i) + t@K@(s@K@)
          s@K@ = s@K@ - 1
        end if
      end if
    end do
  end do
)",
     {"doi"}},
    // Fig. 3: CCS traversal through offset/length arrays.
    {"  integer off@K@(@M1@), ln@K@(@M@)\n  real dat@K@(@ML@), tot@K@\n",
     R"(  do i = 1, @M@
    ln@K@(i) = mod(i * @C1@, @L@) + 1
  end do
  off@K@(1) = 1
  do i = 1, @M@
    off@K@(i + 1) = off@K@(i) + ln@K@(i)
  end do
  ccs@K@: do i = 1, @M@
    do j = 1, ln@K@(i)
      dat@K@(off@K@(i) + j - 1) = i * 0.5 + j
    end do
  end do
  tot@K@ = 0.0
  do i = 1, @M@
    tot@K@ = tot@K@ + dat@K@(off@K@(i))
  end do
)",
     {"ccs"}},
    // Fig. 14: an injective index gathering loop inside a parallel loop.
    {"  integer q@K@, jj@K@, ig@K@(@M@)\n"
     "  real xg@K@(@M@), yg@K@(@M@), zg@K@(@NK@, @M@)\n",
     R"(  do i = 1, @M@
    xg@K@(i) = mod(i * @C1@, 5) - 2.0
    yg@K@(i) = mod(i * @C2@, 9) * 0.5
  end do
  gk@K@: do k = 1, @NK@
    q@K@ = 0
    do i = 1, @M@
      if (xg@K@(i) > 0) then
        q@K@ = q@K@ + 1
        ig@K@(q@K@) = i
      end if
    end do
    gj@K@: do j = 1, q@K@
      jj@K@ = ig@K@(j)
      zg@K@(k, jj@K@) = xg@K@(jj@K@) * yg@K@(jj@K@)
    end do
  end do
)",
     {"gk"}},
    // Prefix-sum positions built by recurrence, then scattered through.
    {"  integer pp@K@, ps@K@(@M@)\n  real xs@K@(@ML@)\n",
     R"(  pp@K@ = 0
  do i = 1, @M@
    pp@K@ = pp@K@ + mod(i, @L@) + 1
    ps@K@(i) = pp@K@
  end do
  psc@K@: do i = 1, @M@
    xs@K@(ps@K@(i)) = i * 0.25 + @C1@
  end do
)",
     {"psc"}},
    // Fused CCS build: segment lengths and column pointers in one loop,
    // then the segment consumer.
    {"  integer cp@K@(@M1@), cc@K@(@M@)\n  real sv@K@(@ML@)\n",
     R"(  cp@K@(1) = 1
  do i = 1, @M@
    cc@K@(i) = mod(i * @C1@, @L@) + 1
    cp@K@(i + 1) = cp@K@(i) + cc@K@(i)
  end do
  seg@K@: do i = 1, @M@
    do j = cp@K@(i), cp@K@(i + 1) - 1
      sv@K@(j) = i + j * 0.5
    end do
  end do
)",
     {"seg"}},
    // A runtime permutation scatter whose target stays live, so it is
    // parallel only after inspection. Sized (MP) well past the profitability
    // guard, so the run's parallel loops carry more work than thread
    // wake-ups; exec_s is too noisy to bound when they do not.
    {"  integer gp@K@(@MP@)\n  real gx@K@(@MP@), gy@K@(@MP@), gt@K@\n",
     R"(  do i = 1, @MP@
    gp@K@(i) = mod(i * @CP@, @MP@) + 1
    gy@K@(i) = i * 0.5
  end do
  gsc@K@: do i = 1, @MP@
    gx@K@(gp@K@(i)) = gy@K@(i) + 1.0
  end do
  gt@K@ = 0.0
  do i = 1, @MP@
    gt@K@ = gt@K@ + gx@K@(i)
  end do
)",
     {"gsc"}},
};

} // namespace

Case generatedProgram(uint64_t Seed, unsigned Index) {
  Rng R(Seed * 0x100000001b3ULL + Index);
  constexpr unsigned Rounds = 24;
  const unsigned NumKernels = sizeof(Kernels) / sizeof(Kernels[0]);
  std::vector<unsigned> Order;
  for (unsigned Round = 0; Round < Rounds; ++Round)
    for (unsigned K = 0; K < NumKernels; ++K)
      Order.push_back(K);

  Case C;
  C.Name = "generated-" + num(Index);
  std::string Decls = "program gen\n  integer i, j, k\n", Body;
  for (unsigned Inst = 0; Inst < Order.size(); ++Inst) {
    const Kernel &K = Kernels[Order[Inst]];
    const int64_t M = 22, NK = 7, L = 4, MP = 12000;
    std::map<std::string, std::string> V = {
        {"K", num(Inst)},
        {"M", num(M)},
        {"M1", num(M + 1)},
        {"M2", num(2 * M + 2)},
        {"ML", num(M * (L + 1) + 1)},
        {"NK", num(NK)},
        {"L", num(L)},
        {"C1", num(R.range(2, 9))},
        {"C2", num(R.range(2, 4))},
        {"MP", num(MP)},
        {"CP", num(coprime(R, MP, 2, MP - 1))}};
    Decls += subst(K.Decls, V);
    Body += "  ! kernel " + num(Inst) + "\n" + subst(K.Body, V);
    for (const char *Loop : K.Loops)
      C.IrregularLoops.push_back(Loop + num(Inst));
  }
  C.Source = Decls + Body + "end\n";
  return C;
}

} // namespace perfbench
