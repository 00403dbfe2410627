package build

import (
	"context"
	"errors"

	"repro/internal/dockerfile"
	"repro/internal/obs"
)

// Engine-level instruments on the obs default registry (see
// docs/observability.md). Labeled children are resolved once here, not
// per event: With takes the family mutex.
var (
	mBuilds = obs.NewCounterVec("ch_build_builds_total",
		"Builds finished through BuildContext, by outcome.", "outcome")
	mInstructions = obs.NewCounterVec("ch_build_instructions_total",
		"Instructions completed, by mode (executed vs replayed from cache).", "mode")
	mInstrExecuted      = mInstructions.With("executed")
	mInstrReplayed      = mInstructions.With("replayed")
	mInstructionSeconds = obs.NewHistogram("ch_build_instruction_seconds",
		"Wall time per instruction (executed, replayed and metadata-only alike).", obs.DefBuckets)
	mCacheHits = obs.NewCounter("ch_build_cache_hits_total",
		"Instruction-cache hits, single-flight waits included (Cache.Stats semantics).")
	mCacheMisses = obs.NewCounter("ch_build_cache_misses_total",
		"Instruction-cache misses that began a fill.")
	mPoolInFlight = obs.NewGauge("ch_build_pool_in_flight",
		"Builds running through RunJob right now (pooled batches and daemon operations).")
)

// buildOutcome classifies one finished BuildContext call for the
// builds_total counter. Degraded is a distinct outcome, not a success
// flavor: it is the signal the paper's persistence contract surfaces.
// instrSpanName names a per-instruction span: the command plus its
// (truncated) argument text, matching the transcript line.
func instrSpanName(ins dockerfile.Instruction) string {
	raw := ins.Raw
	if len(raw) > 60 {
		raw = raw[:57] + "..."
	}
	if raw == "" {
		return ins.Cmd
	}
	return ins.Cmd + " " + raw
}

func buildOutcome(res *Result, err error) string {
	switch {
	case err == nil && res != nil && res.Degraded:
		return "degraded"
	case err == nil:
		return "succeeded"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "failed"
	}
}
