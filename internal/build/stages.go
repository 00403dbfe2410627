// Multi-stage build driver. A multi-stage Dockerfile is a DAG of stages:
// each FROM opens a stage, a stage may base itself on an earlier stage
// (FROM builder) or read from one (COPY --from=builder), and only the
// final stage is the build product. Every reachable stage gets its own
// goroutine, which waits for the stages it depends on, takes one of
// Options.StageJobs slots and builds the stage on its own simos kernel
// and VFS. All stages share the one image.Store and instruction Cache,
// exactly like pooled whole builds. A stage starts as soon as its own
// dependencies finish; the first failure cancels every stage still in
// flight, and dependents of a failed stage never start.
// Stages the final stage never references are pruned: parsed, validated,
// reported, but not built.
package build

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/dockerfile"
	"repro/internal/image"
	"repro/internal/simos"
)

// buildStages builds the reachable stages of f, each as soon as its
// dependencies have finished, and returns the final stage's image
// (tagged into Options.Store under Options.Tag; intermediate stage images
// are never tagged). Stage transcripts are written to Options.Output in
// stage-index order.
func buildStages(ctx context.Context, f *dockerfile.File, opt Options) (*Result, error) {
	out := opt.Output
	if out == nil {
		out = io.Discard
	}
	agg := &Result{}
	n := len(f.Stages)
	final := n - 1
	if opt.TargetStage != "" {
		idx, ok := f.StageIndex(opt.TargetStage)
		if !ok {
			return agg, fmt.Errorf("build: target stage %q not found", opt.TargetStage)
		}
		final = idx
	}
	reach := f.ReachableFrom(final)
	for i, ok := range reach {
		if !ok {
			agg.StagesSkipped++
			fmt.Fprintf(out, "=== stage %d/%d (%s): skipped, not referenced by the target stage\n",
				i+1, n, stageLabel(f.Stages[i]))
		}
	}

	// stageCtx is the stages' own cancellation scope: the caller's ctx
	// plus the first stage failure, which stops every stage in flight at
	// its next instruction boundary.
	stageCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	slots := opt.StageJobs
	if slots <= 0 || slots > n {
		slots = n
	}
	sem := make(chan struct{}, slots)

	// Stage i's goroutine alone writes imgs[i], stageRes[i], errs[i] and
	// transcripts[i], and closes done[i] after them: every reader waits
	// on done[i] first.
	imgs := make([]*image.Image, n)
	stageRes := make([]*Result, n)
	errs := make([]error, n)
	transcripts := make([]bytes.Buffer, n)
	done := make([]chan struct{}, n)
	for i := range f.Stages {
		if !reach[i] {
			continue
		}
		done[i] = make(chan struct{})
		go func(i int) {
			defer close(done[i])
			for _, d := range f.Stages[i].Deps {
				<-done[d]
				if imgs[d] == nil {
					return // the dependency failed or never ran
				}
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			if stageCtx.Err() != nil {
				return
			}
			o := opt
			o.Output = &transcripts[i]
			o.Tag = ""
			if i == final {
				o.Tag = opt.Tag
			}
			res, img, err := buildOneStage(stageCtx, f, i, imgs, o)
			stageRes[i] = res
			if err != nil {
				errs[i] = fmt.Errorf("stage %d (%s): %w", i+1, stageLabel(f.Stages[i]), err)
				cancel()
				return
			}
			imgs[i] = img
		}(i)
	}
	for i := range f.Stages {
		if !reach[i] {
			continue
		}
		<-done[i]
		if stageRes[i] != nil {
			fmt.Fprintf(out, "=== stage %d/%d (%s)\n", i+1, n, stageLabel(f.Stages[i]))
			out.Write(transcripts[i].Bytes())
		}
	}

	aggregate(agg, stageRes, imgs)
	if err := errors.Join(errs...); err != nil {
		return agg, err
	}
	if imgs[final] == nil {
		// No stage failed, so the caller's ctx ended the build before
		// the final stage could start.
		return agg, fmt.Errorf("build: stages not started: %w", ctx.Err())
	}
	agg.Image = imgs[final]
	fmt.Fprintf(out, "multi-stage build: %d stage(s) built, %d skipped: %s\n",
		agg.StagesBuilt, agg.StagesSkipped, agg.Image.Name)
	return agg, nil
}

// aggregate folds the per-stage results into the whole-build Result:
// counts and modeled time sum across every stage that ran (a failed stage
// still contributes the counters it accrued), counters add field-wise;
// StagesBuilt counts only the stages that completed.
func aggregate(agg *Result, stageRes []*Result, imgs []*image.Image) {
	for i, r := range stageRes {
		if r == nil {
			continue
		}
		if imgs[i] != nil {
			agg.StagesBuilt++
		}
		agg.CacheHits += r.CacheHits
		agg.Executed += r.Executed
		agg.ModifiedRuns += r.ModifiedRuns
		agg.FakerootRecords += r.FakerootRecords
		agg.VirtualNanos += r.VirtualNanos
		agg.Counters = addCounters(agg.Counters, r.Counters)
	}
}

// addCounters sums two kernel counter snapshots field-wise.
func addCounters(a, b simos.CounterSnapshot) simos.CounterSnapshot {
	a.Syscalls += b.Syscalls
	a.Filtered += b.Filtered
	a.Faked += b.Faked
	a.PtraceStops += b.PtraceStops
	a.PreloadHits += b.PreloadHits
	a.NotifEvents += b.NotifEvents
	return a
}

// stageLabel names a stage for transcripts and spans: its AS name when
// present, else its index.
func stageLabel(st dockerfile.Stage) string {
	if st.Name != "" {
		return st.Name
	}
	return fmt.Sprintf("%d", st.Index)
}
