#pragma once

#include "fixture.h"

namespace perfbench {

// Each runs one workload and fills `result` with its end-to-end metrics
// (args.trace == false) or its per-layer metrics (args.trace == true).
// Oracle mismatches are counted as failed operations.
void run_lc_churn(const Args& args, Result& result);
void run_acl_rw(const Args& args, Result& result);
void run_fail_sweep(const Args& args, Result& result);

}  // namespace perfbench
