// Consistency check of a parsed madpipe-explain-v1 document, shared by the
// report tests and the CLI tests. Defined in test_plan_report.cpp.
#pragma once

#include "util/json.hpp"

namespace madpipe::test {

/// Adds a gtest failure for every violated invariant: headroom, memory
/// decomposition, binding term, curves, utilizations, critical resource,
/// stage records and the simulated period.
void expect_valid_explain_v1(const json::Value& document);

}  // namespace madpipe::test
