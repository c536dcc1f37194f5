// Umbrella header for the kcenter library.
//
// Re-exports every public module header behind the kc:: namespace so that
// downstream code (examples, experiment harnesses, external users) can
// depend on the library with a single include:
//
//   #include "kcenter.hpp"
//
// The modules mirror the paper's structure — de Berg, Biabani &
// Monemizadeh, "k-Center Clustering with Outliers in the MPC and Streaming
// Model" (IPDPS 2023):
//
//   core        (ε,k,z)-coreset machinery, mini-ball covers, offline
//               solvers (Gonzalez, Charikar, brute force), cost/verify
//   dataset     .kcb on-disk container, mmap zero-copy sources, chunked
//               out-of-core readers, CSV / Matrix-Market importers
//   geometry    points, metric spaces, bounding boxes, grids
//   dynamic     fully dynamic coreset + k-center maintenance
//   lowerbound  insertion-only / sliding-window / dynamic lower bounds
//   mpc         MPC simulator and the one-/two-/multi-round algorithms
//   sketch      F0 estimation and sparse recovery used by lower bounds
//   stream      insertion-only and sliding-window streaming algorithms
//   util        contracts, CSV, flags, JSON log, RNG, stats, tables, timers
//   workload    planted-instance generators and stream drivers
//   engine      registry-backed pipeline layer unifying all four models

#pragma once

// util — foundational helpers used by every other module.
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/jsonlog.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

// geometry — points, metrics, and spatial decomposition, plus the
// performance layer (inline kernels + radius-tuned hash grid).
#include "geometry/box.hpp"
#include "geometry/grid.hpp"
#include "geometry/grid_index.hpp"
#include "geometry/kernels.hpp"
#include "geometry/metric.hpp"
#include "geometry/point.hpp"
#include "geometry/point_buffer.hpp"

// dataset — out-of-core ingest: the .kcb binary container, mmap-backed
// zero-copy sources, chunked readers, and text importers.
#include "dataset/kcb.hpp"
#include "dataset/source.hpp"
#include "dataset/text_import.hpp"

// core — problem types, coresets, and offline solvers.
#include "core/brute_force.hpp"
#include "core/charikar.hpp"
#include "core/coreset.hpp"
#include "core/cost.hpp"
#include "core/gonzalez.hpp"
#include "core/mbc.hpp"
#include "core/radius_oracle.hpp"
#include "core/solver.hpp"
#include "core/types.hpp"
#include "core/verify.hpp"

// sketch — linear sketches backing the communication lower bounds.
#include "sketch/f0_estimator.hpp"
#include "sketch/field.hpp"
#include "sketch/hashing.hpp"
#include "sketch/one_sparse.hpp"
#include "sketch/power_sum.hpp"
#include "sketch/sparse_recovery.hpp"

// mpc — massively parallel computation simulator and algorithms, plus
// deterministic fault injection and recovery.
#include "mpc/ceccarello.hpp"
#include "mpc/faults.hpp"
#include "mpc/multi_round.hpp"
#include "mpc/one_round.hpp"
#include "mpc/partition.hpp"
#include "mpc/simulator.hpp"
#include "mpc/transport.hpp"
#include "mpc/two_round.hpp"
#include "mpc/wire.hpp"

// stream — insertion-only and sliding-window algorithms.
#include "stream/insertion_only.hpp"
#include "stream/mccutchen_khuller.hpp"
#include "stream/sliding_window.hpp"

// dynamic — fully dynamic maintenance under insertions and deletions.
#include "dynamic/dynamic_coreset.hpp"
#include "dynamic/dynamic_kcenter.hpp"
#include "dynamic/naive_store.hpp"

// lowerbound — hard-instance constructions matching the paper's bounds.
#include "lowerbound/dynamic_lb.hpp"
#include "lowerbound/insertion_lb.hpp"
#include "lowerbound/sliding_lb.hpp"

// workload — reproducible instance generators and stream drivers.
#include "workload/generators.hpp"
#include "workload/streams.hpp"

// engine — the registry-backed pipeline layer: every computation model
// (offline, MPC, streaming, dynamic) behind one Workload → coreset →
// Solution → PipelineReport interface, runnable by name.
#include "engine/pipeline.hpp"
#include "engine/registry.hpp"
