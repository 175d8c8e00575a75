// NTRUSolve and key generation cost (DESIGN.md section 20): the layer the
// attack's last step runs (forge_key re-solves the NTRU equation from the
// recovered f) and the victim's set-up.
//
//   bench_ntru_solve [logn] [repeats]   (defaults: 8, 9)
//
// Rows: `solve` times ntru_solve on the fixed f, g of the victim key
// (keygen seed "victim key seed"); `keygen` times the whole keygen with
// that seed, retries included. Each row reports the median of the
// repeats and checks f*G - g*F == q and F, G against the victim key.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_harness.h"
#include "common/rng.h"
#include "falcon/falcon.h"
#include "falcon/ntru_solve.h"

namespace {

using namespace fd;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("ntru_solve", argc, argv);
  const unsigned logn = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 8;
  const int repeats = argc > 2 ? std::max(1, std::atoi(argv[2])) : 9;
  char params[64];
  std::snprintf(params, sizeof params, "logn=%u repeats=%d", logn, repeats);

  ChaCha20Prng key_rng("victim key seed");
  const auto victim = falcon::keygen(logn, key_rng);
  const std::size_t n = victim.sk.params.n;
  falcon::ZPoly zf(n), zg(n);
  for (std::size_t i = 0; i < n; ++i) {
    zf[i] = BigInt(victim.sk.f[i]);
    zg[i] = BigInt(victim.sk.g[i]);
  }

  std::printf("== NTRUSolve / keygen (logn=%u, median of %d) ==\n", logn, repeats);
  std::vector<double> solve_ms, keygen_ms;
  bool same = true;
  for (int r = 0; r < repeats; ++r) {
    bench::WallTimer t;
    const auto sol = falcon::ntru_solve(zf, zg, falcon::kQ);
    solve_ms.push_back(t.ms());
    same = same && sol.has_value();
    for (std::size_t i = 0; same && i < n; ++i) {
      same = sol->big_f[i] == BigInt(victim.sk.big_f[i]) &&
             sol->big_g[i] == BigInt(victim.sk.big_g[i]);
    }

    ChaCha20Prng rng("victim key seed");
    t.reset();
    const auto kp = falcon::keygen(logn, rng);
    keygen_ms.push_back(t.ms());
    same = same && kp.sk.big_f == victim.sk.big_f && kp.sk.big_g == victim.sk.big_g;
  }
  same = same && falcon::ntru_equation_holds(victim.sk.f, victim.sk.g, victim.sk.big_f,
                                             victim.sk.big_g);

  std::printf("ntru_solve  %8.3f ms\n", median(solve_ms));
  std::printf("keygen      %8.3f ms\n", median(keygen_ms));
  std::printf("F, G match the victim key and solve the NTRU equation: %s\n", same ? "yes" : "NO");
  harness.report("solve", params, median(solve_ms));
  harness.report("keygen", params, median(keygen_ms));
  return same ? 0 : 2;
}
