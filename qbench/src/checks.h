/**
 * @file
 * Correctness checks of the program's outputs.  Each compares an
 * output against an independent computation or a required property,
 * never against a stored copy of an earlier output, and returns ""
 * when the output passes or a one-line reason when it does not.
 */

#ifndef QBENCH_CHECKS_H
#define QBENCH_CHECKS_H

#include <cstdint>
#include <string>

#include "circuit/circuit.h"
#include "engine/backend.h"

namespace qbench {

/**
 * @return the dependence depth of @p circ: the number of
 * topological generations of its gate list, where a gate follows
 * the last earlier gate on each of its operands.
 */
uint64_t dependenceDepth(const qsurf::circuit::Circuit &circ);

/** Required of every simulated point:
 *  schedule_cycles >= critical_path_cycles >= @p depth. */
std::string checkCycleBounds(const qsurf::engine::Metrics &m,
                             uint64_t depth);

/**
 * Every result field of @p got equals @p want bit for bit: backend,
 * code, distance, cycles, critical path, qubits, seconds and every
 * extra counter.  With @p ignore_ff the fast-forward bookkeeping
 * extras ("ff_*"), which count skipped cycles and so differ between
 * stepped and fast-forwarded runs by design, are left out.
 */
std::string compareMetrics(const qsurf::engine::Metrics &want,
                           const qsurf::engine::Metrics &got,
                           bool ignore_ff);

/** A QASM round trip keeps the program: equal fingerprints. */
std::string checkFingerprint(uint64_t generated, uint64_t flattened);

/**
 * @p heatmap_json (obs::TraceSession::writeHeatmap) shows no busy
 * cycles on a defective link, nor on any link into or out of a
 * defective router.  Also fails when no run in it has a defect at
 * all, so a check handed a perfect fabric cannot pass vacuously.
 */
std::string checkHeatmapDefects(const std::string &heatmap_json);

/** The server counted exactly the @p sent compile requests the
 *  client sent (@p telemetry_json is its Telemetry payload). */
std::string checkRequestCount(const std::string &telemetry_json,
                              uint64_t sent);

} // namespace qbench

#endif // QBENCH_CHECKS_H
