/**
 * @file
 * Test helper: run an assembly kernel in full detail through the
 * harness (runWorkload), on a 1-core System seeded like every other
 * single-core run.
 */
#pragma once

#include <string>

#include "harness/experiment.hpp"

namespace reno
{

inline RunOutput
runKernel(const std::string &src, const CoreParams &params,
          CriticalPathAnalyzer *cpa = nullptr)
{
    return runWorkload({"kernel", "test", src.c_str()}, params, cpa);
}

} // namespace reno
