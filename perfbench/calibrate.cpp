/**
 * @file
 * Host-speed calibration kernel. It is compiled into the benchmark, not
 * taken from src/, so no change to the simulator moves it; what moves
 * it is the host: other tenants contending for the core, its caches and
 * memory. It mixes the kinds of work the simulator does: dependent
 * loads over a ring larger than the L1, hashing with data-dependent
 * branches, hash-map inserts and a sort, and a small register-machine
 * interpreter whose switch dispatch and unpredictable branches resemble
 * the functional emulator's inner loop. Neither half alone tracked the
 * simulator's slowdowns well; together they did (see README.md).
 */
#include <algorithm>
#include <chrono>
#include <numeric>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench
{

namespace
{

constexpr std::size_t RingNodes = std::size_t{1} << 19;  // 2 MiB
constexpr std::size_t InterpWords = std::size_t{1} << 17;  // 1 MiB
constexpr std::size_t InterpInsns = 4096;

std::uint64_t
xorshift(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

} // namespace

Calibrator::Calibrator() : ring_(RingNodes), memory_(InterpWords)
{
    // One random cycle through every node (Sattolo's shuffle).
    std::vector<std::uint32_t> order(RingNodes);
    std::iota(order.begin(), order.end(), 0u);
    std::uint64_t s = 88172645463325252ULL;
    for (std::size_t i = RingNodes - 1; i > 0; --i)
        std::swap(order[i], order[xorshift(s) % i]);
    for (std::size_t i = 0; i < RingNodes; ++i)
        ring_[order[i]] = order[(i + 1) % RingNodes];

    // A fixed random program: ALU ops, loads, stores and short forward
    // branches taken on a register's low bit.
    for (std::size_t i = 0; i < InterpInsns; ++i) {
        Insn in;
        in.op = std::uint8_t(xorshift(s) % 10);
        in.a = std::uint8_t(xorshift(s) % 16);
        in.b = std::uint8_t(xorshift(s) % 16);
        in.c = std::uint8_t(xorshift(s) % 16);
        in.imm = in.op == 9 ? 1 + std::int32_t(xorshift(s) % 6)
                            : std::int32_t(xorshift(s) % 64);
        program_.push_back(in);
    }
}

double
Calibrator::run()
{
    const auto t0 = std::chrono::steady_clock::now();

    std::uint32_t node = 0;
    std::uint64_t h = 1469598103934665603ULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < 1500000; ++i) {
        node = ring_[node];
        h = (h ^ node) * 1099511628211ULL;
        if (h & 0x10)
            acc += h >> 7;
        else
            acc ^= node;
    }

    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    std::uint64_t s = acc | 1;
    for (int i = 0; i < 150000; ++i)
        counts[xorshift(s) & 0xfffff] += std::uint64_t(i);
    std::vector<std::uint64_t> keys;
    keys.reserve(counts.size());
    for (const auto &[key, count] : counts)
        keys.push_back(key * count);
    std::sort(keys.begin(), keys.end());
    acc += keys.size() + keys.front();

    std::uint64_t r[16];
    for (unsigned i = 0; i < 16; ++i)
        r[i] = i + 1;
    const std::size_t n = program_.size();
    const std::size_t mask = memory_.size() - 1;
    for (int iter = 0; iter < 1000; ++iter) {
        for (std::size_t pc = 0; pc < n; ++pc) {
            const Insn &in = program_[pc];
            switch (in.op) {
              case 0: r[in.c] = r[in.a] + r[in.b]; break;
              case 1: r[in.c] = r[in.a] ^ (r[in.b] + in.imm); break;
              case 2: r[in.c] = r[in.a] * (r[in.b] | 1); break;
              case 3: r[in.c] = r[in.a] >> (in.imm & 31); break;
              case 4: r[in.c] = r[in.a] + in.imm; break;
              case 5: r[in.c] = memory_[(r[in.a] + in.imm) & mask]; break;
              case 6: memory_[(r[in.a] >> 3) & mask] = r[in.b]; break;
              case 7:
                r[in.c] = memory_[(r[in.a] * 0x9E3779B97F4A7C15ULL >> 20) &
                                  mask] +
                          r[in.b];
                break;
              case 8:
                r[in.c] = r[in.a] < r[in.b] ? r[in.a] : r[in.b] + 1;
                break;
              default:
                if (r[in.a] & 1)
                    pc += in.imm;
                break;
            }
        }
    }
    for (const std::uint64_t v : r)
        acc += v;
    sink_ += acc;

    samples_.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    return samples_.back();
}

double
Calibrator::slowdown() const
{
    return median(samples_) / ReferenceSeconds;
}

} // namespace perfbench
