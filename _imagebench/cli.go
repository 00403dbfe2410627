package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/build"
	"repro/internal/cas"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/pkgmgr"
)

// invoke is one `ch-image build` invocation without the process start:
// seed a fresh store with the base images and build. Given a cache
// directory (`--cache-dir DIR`), it opens DIR first, backs the store and
// the instruction cache with it, and closes it after the build. Every
// invocation starts from fresh in-memory state, as a new process would;
// only DIR carries over.
func invoke(ctx context.Context, dir string, in *input, traced bool) (sample, *build.Result, error) {
	var s sample
	start := time.Now()
	var d *cas.Dir
	if dir != "" {
		var err error
		if d, _, err = cas.Open(dir); err != nil {
			return s, nil, err
		}
	}
	world := pkgmgr.NewWorld()
	store := image.NewStore()
	opt := build.Options{
		Tag: in.tag, Force: in.force, Store: store, World: world,
		Context: in.context, StageJobs: 1,
	}
	if d != nil {
		store.SetBacking(d)
		opt.Cache = build.NewPersistentCache(d)
	}
	if err := seedBases(world, store); err != nil {
		if d != nil {
			err = errors.Join(err, d.Close())
		}
		return s, nil, err
	}
	bctx, root := ctx, (*obs.Span)(nil)
	var rootStart time.Time
	if traced {
		rootStart = time.Now()
		bctx, root = obs.NewTrace(ctx, "build "+in.tag)
	}
	res, err := build.BuildContext(bctx, in.text, opt)
	root.End()
	if d != nil {
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	end := time.Now()
	if err != nil {
		return s, nil, fmt.Errorf("%s: %w", in.tag, err)
	}
	s.latency = end.Sub(start)
	s.executed, s.hits = res.Executed, res.CacheHits
	s.vns = res.VirtualNanos
	if traced {
		attribute(&s, root.Snapshot(), rootStart, start, end)
	}
	return s, res, nil
}

// cliSystem runs the cold and warm workloads: one user running ch-image
// builds one after another. Cold builds without a cache directory, so
// every instruction executes; warm shares one directory populated at
// set-up, so every instruction replays from disk.
type cliSystem struct {
	inputs []*input
	cold   bool
	dir    string // warm only
}

// setup builds every input once: for warm into a fresh cache directory,
// which the window then replays from; for cold as a warm-up pass that
// leaves the process as the measured builds will find it.
func (c *cliSystem) setup(ctx context.Context, dir string) error {
	if !c.cold {
		c.dir = dir
	}
	for _, in := range c.inputs {
		_, res, err := invoke(ctx, c.dir, in, false)
		if err != nil {
			return err
		}
		if err := checkBuild(in, res, anySplit, in.cacheable); err != nil {
			return err
		}
	}
	return nil
}

func (c *cliSystem) op(ctx context.Context, _ *client, i int, traced bool) (sample, error) {
	in := c.inputs[i%len(c.inputs)]
	wantExec, wantHits := 0, in.cacheable
	if c.cold {
		wantExec, wantHits = in.cacheable, 0
	}
	var parse time.Duration
	if traced {
		parse = timeParse(in.text)
	}
	s, res, err := invoke(ctx, c.dir, in, traced)
	s.parse = parse
	if err == nil {
		err = checkBuild(in, res, wantExec, wantHits)
	}
	return s, err
}

// metrics renders the process's metrics registry: the builds run in
// this process, so it holds exactly what ch-image's would.
func (c *cliSystem) metrics(context.Context) (map[string]float64, error) {
	var b bytes.Buffer
	if err := obs.Default.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseMetrics(&b)
}

// verify is a no-op: every cold and warm build was checked as it
// finished.
func (c *cliSystem) verify(context.Context) error { return nil }

func (c *cliSystem) stop(context.Context) error { return nil }

// anySplit, passed as wantExec, accepts any split of the instructions
// between executed and replayed, as long as they add up to wantHits: a
// set-up pass replays the steps its inputs share with earlier ones.
const anySplit = -1

// expected reports whether a build executed and replayed what the
// cache's state implies.
func expected(executed, hits, wantExec, wantHits int) bool {
	if wantExec == anySplit {
		return executed+hits == wantHits
	}
	return executed == wantExec && hits == wantHits
}

// checkBuild holds one finished build to what the inputs predict: the
// reference image, and the instructions executed and replayed that the
// cache's state implies.
func checkBuild(in *input, res *build.Result, wantExec, wantHits int) error {
	if res.Degraded {
		return fmt.Errorf("%s: degraded: %v", in.tag, res.DegradedErrs)
	}
	if !expected(res.Executed, res.CacheHits, wantExec, wantHits) {
		return fmt.Errorf("%s: executed %d, replayed %d; want %d and %d",
			in.tag, res.Executed, res.CacheHits, wantExec, wantHits)
	}
	return checkImage(in, res.Image)
}
