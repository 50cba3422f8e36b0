// Recorded outputs of the paper-opt workload, from the commit that
// introduced the benchmark: the lifetime (minutes, exact binary value) of
// every grid cell in grid order — ten paper loads x {sequential,
// round_robin, best_of_n, lookahead:horizon=2, lookahead:horizon=8, opt}
// on 2 x B1 — and the exact search's node total over the ten opt cells.
// Lifetimes are schedule outcomes and must never change; the node total
// moves only with the search itself, and a change that moves it updates
// the value here.
#pragma once

#include <array>
#include <cstdint>

namespace perfbench::golden {

inline constexpr std::array<double, 60> paper_opt_lifetimes{
    0x1.2147ae147ae15p+3,  // CL 250 | sequential
    0x1.71eb851eb851fp+3,  // CL 250 | round_robin
    0x1.71eb851eb851fp+3,  // CL 250 | best_of_n
    0x1.71eb851eb851fp+3,  // CL 250 | lookahead:horizon=2
    0x1.8p+3,  // CL 250 | lookahead:horizon=8
    0x1.8p+3,  // CL 250 | opt
    0x1.051eb851eb852p+2,  // CL 500 | sequential
    0x1.2p+2,  // CL 500 | round_robin
    0x1.2p+2,  // CL 500 | best_of_n
    0x1.2p+2,  // CL 500 | lookahead:horizon=2
    0x1.228f5c28f5c29p+2,  // CL 500 | lookahead:horizon=8
    0x1.228f5c28f5c29p+2,  // CL 500 | opt
    0x1.599999999999ap+2,  // CL alt | sequential
    0x1.851eb851eb852p+2,  // CL alt | round_robin
    0x1.87ae147ae147bp+2,  // CL alt | best_of_n
    0x1.95c28f5c28f5cp+2,  // CL alt | lookahead:horizon=2
    0x1.9d70a3d70a3d7p+2,  // CL alt | lookahead:horizon=8
    0x1.9d70a3d70a3d7p+2,  // CL alt | opt
    0x1.6b851eb851eb8p+4,  // ILs 250 | sequential
    0x1.375c28f5c28f6p+5,  // ILs 250 | round_robin
    0x1.375c28f5c28f6p+5,  // ILs 250 | best_of_n
    0x1.375c28f5c28f6p+5,  // ILs 250 | lookahead:horizon=2
    0x1.38p+5,  // ILs 250 | lookahead:horizon=8
    0x1.46147ae147ae1p+5,  // ILs 250 | opt
    0x1.128f5c28f5c29p+3,  // ILs 500 | sequential
    0x1.4e147ae147ae1p+3,  // ILs 500 | round_robin
    0x1.4e147ae147ae1p+3,  // ILs 500 | best_of_n
    0x1.4e147ae147ae1p+3,  // ILs 500 | lookahead:horizon=2
    0x1.4f5c28f5c28f6p+3,  // ILs 500 | lookahead:horizon=8
    0x1.4f5c28f5c28f6p+3,  // ILs 500 | opt
    0x1.8b851eb851eb8p+3,  // ILs alt | sequential
    0x1.999999999999ap+3,  // ILs alt | round_robin
    0x1.047ae147ae148p+4,  // ILs alt | best_of_n
    0x1.04ccccccccccdp+4,  // ILs alt | lookahead:horizon=2
    0x1.0e147ae147ae1p+4,  // ILs alt | lookahead:horizon=8
    0x1.0e147ae147ae1p+4,  // ILs alt | opt
    0x1.999999999999ap+3,  // ILs r1 | sequential
    0x1.0428f5c28f5c3p+4,  // ILs r1 | round_robin
    0x1.0428f5c28f5c3p+4,  // ILs r1 | best_of_n
    0x1.03d70a3d70a3ep+4,  // ILs r1 | lookahead:horizon=2
    0x1.470a3d70a3d71p+4,  // ILs r1 | lookahead:horizon=8
    0x1.47ae147ae147bp+4,  // ILs r1 | opt
    0x1.870a3d70a3d71p+3,  // ILs r2 | sequential
    0x1.cf5c28f5c28f6p+3,  // ILs r2 | round_robin
    0x1.cf5c28f5c28f6p+3,  // ILs r2 | best_of_n
    0x1.ceb851eb851ecp+3,  // ILs r2 | lookahead:horizon=2
    0x1.dp+3,  // ILs r2 | lookahead:horizon=8
    0x1.d0a3d70a3d70ap+3,  // ILs r2 | opt
    0x1.6eb851eb851ecp+5,  // ILl 250 | sequential
    0x1.3p+6,  // ILl 250 | round_robin
    0x1.3p+6,  // ILl 250 | best_of_n
    0x1.3p+6,  // ILl 250 | lookahead:horizon=2
    0x1.39eb851eb851fp+6,  // ILl 250 | lookahead:horizon=8
    0x1.3bae147ae147bp+6,  // ILl 250 | opt
    0x1.9d70a3d70a3d7p+3,  // ILl 500 | sequential
    0x1.feb851eb851ecp+3,  // ILl 500 | round_robin
    0x1.feb851eb851ecp+3,  // ILl 500 | best_of_n
    0x1.ff5c28f5c28f6p+3,  // ILl 500 | lookahead:horizon=2
    0x1.2ae147ae147aep+4,  // ILl 500 | lookahead:horizon=8
    0x1.2ae147ae147aep+4,  // ILl 500 | opt
};

inline constexpr std::uint64_t paper_opt_nodes = 89946;

}  // namespace perfbench::golden
