// Numerical-determinism contract annotations (docs/static_analysis.md,
// "Determinism contracts and error discipline").
//
// Every correctness claim the repo makes — Fig. 4 accuracy, rank-count
// equivalence, fallback-rung determinism — rests on bit-identical replay.
// tools/lint/check_numerics.py statically rejects the constructs that break
// it (unordered-container iteration feeding floating-point accumulation,
// wall-clock or RNG reads on the solve path, exact floating-point compares,
// silently dropped Status/Outcome values). The macros below are the two
// halves of that contract:
//
//   NEURO_BITEXACT           marks a function as bit-exact-contract code.
//                            Inside such a function the analyzer applies its
//                            strict profile: *any* unordered-container
//                            iteration and *any* nondeterminism source is a
//                            finding, even in files the relaxed profile
//                            allowlists. The macro expands to nothing — it is
//                            a grep-able marker, not an attribute — so it
//                            compiles identically everywhere.
//
//   NEURO_STATUS_IGNORED(expr, reason)
//                            the one sanctioned way to drop a
//                            base::Status / base::Outcome return value. Both
//                            classes are declared [[nodiscard]] at class
//                            level, so a bare discarding call fails the
//                            NEURO_WERROR build; this macro casts the value
//                            to void *and* carries the mandatory grep-able
//                            reason the analyzer (and the reviewer) reads.
//
// The third marker is a comment, not a macro, mirroring NEURO_SPMD_OK:
//
//   // NEURO_NONDET_OK(<reason>)
//                            on the finding's line or the line above,
//                            suppresses one unordered-iteration /
//                            nondet-source / float-exact-compare finding.
//                            Exact sentinel compares (structural-zero drops,
//                            `sigma == 0.0` early-outs) and the sanctioned
//                            wall-clock reads (deadline watchdogs, recv
//                            timeouts) are the intended users; anything else
//                            is a hazard to fix, not to suppress.
#pragma once

// Marker only: the determinism contract is enforced by the static analyzer,
// not the compiler, so the expansion must be empty on every toolchain.
#define NEURO_BITEXACT

// Swallows a [[nodiscard]] Status/Outcome on purpose. The reason is part of
// the call so it cannot rot away from the discard site; the analyzer treats
// the marker itself as the suppression.
#define NEURO_STATUS_IGNORED(expr, reason) static_cast<void>(expr)
