package build

// Service-mode pool tests: Start/Submit/Drain — the resident-worker mode
// the ch-imaged daemon runs on.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestServiceStartValidation(t *testing.T) {
	p := &Pool{}
	if err := p.Start(); err == nil {
		t.Fatal("Start with Workers=0 should fail")
	}
	p = &Pool{Workers: 2}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Drain()
	if err := p.Start(); err == nil {
		t.Fatal("second Start should fail")
	}
}

func TestServiceSubmitSharesCache(t *testing.T) {
	w, s := fixtures(t)
	cache := NewCache()
	p := &Pool{Workers: 2}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Drain()

	opt := Options{Force: ForceSeccomp, Store: s, World: w, Cache: cache}
	submitWait := func(tag string) JobResult {
		o := opt
		o.Tag = tag
		ch, err := p.Submit(context.Background(), Job{Dockerfile: echoDockerfile, Options: o})
		if err != nil {
			t.Fatal(err)
		}
		return <-ch
	}

	first := submitWait("svc-a:latest")
	if first.Err != nil {
		t.Fatalf("first submit: %v", first.Err)
	}
	if first.Result.Executed == 0 {
		t.Fatal("cold build should execute instructions")
	}
	second := submitWait("svc-b:latest")
	if second.Err != nil {
		t.Fatalf("second submit: %v", second.Err)
	}
	if second.Result.Executed != 0 {
		t.Fatalf("warm build executed %d instructions, want 0", second.Result.Executed)
	}
	if second.Name != "svc-b:latest" {
		t.Fatalf("job name %q, want the tag", second.Name)
	}
	if first.Transcript == "" {
		t.Fatal("nil Output should capture a transcript")
	}
	for _, tag := range []string{"svc-a:latest", "svc-b:latest"} {
		if _, ok := s.GetContext(context.Background(), tag); !ok {
			t.Fatalf("tag %s not in store", tag)
		}
	}
}

func TestServiceSubmitPreCancelled(t *testing.T) {
	w, s := fixtures(t)
	p := &Pool{Workers: 1}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Drain()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch, err := p.Submit(ctx, Job{
		Name:       "dead",
		Dockerfile: echoDockerfile,
		Options:    Options{Force: ForceSeccomp, Store: s, World: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if !r.Cancelled {
		t.Fatal("pre-cancelled submit should report Cancelled")
	}
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("err %v should wrap context.Canceled", r.Err)
	}
	if r.Result != nil {
		t.Fatal("never-started job should have nil Result")
	}
}

func TestServiceParallelSubmitsAndIdleAccounting(t *testing.T) {
	w, s := fixtures(t)
	cache := NewCache()
	p := &Pool{Workers: 4}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}

	const jobs = 12
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := Options{Force: ForceSeccomp, Store: s, World: w, Cache: cache}
			ch, err := p.Submit(context.Background(), Job{Dockerfile: echoDockerfile, Options: opt})
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = (<-ch).Err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if n := p.InFlight(); n != 0 {
		t.Fatalf("InFlight after all results delivered = %d, want 0", n)
	}

	p.Drain()
	if _, err := p.Submit(context.Background(), Job{Dockerfile: echoDockerfile}); !errors.Is(err, ErrNotServing) {
		t.Fatalf("Submit after Drain: err %v, want ErrNotServing", err)
	}
	if n := p.InFlight(); n != 0 {
		t.Fatalf("InFlight after Drain = %d, want 0", n)
	}
}

func TestServiceDrainNotServingNoop(t *testing.T) {
	p := &Pool{Workers: 2}
	p.Drain() // never started: must not panic or hang
	if _, err := p.Submit(context.Background(), Job{}); !errors.Is(err, ErrNotServing) {
		t.Fatalf("Submit on unstarted pool: err %v, want ErrNotServing", err)
	}
}

func TestServiceSubmitCancelWhileRunning(t *testing.T) {
	w, s := fixtures(t)
	p := &Pool{Workers: 1}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Drain()

	// Gate the build at its first instruction boundary, cancel, then
	// assert the job stopped at that boundary (the cancel_test contract).
	started := make(chan struct{})
	var once sync.Once
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{
		Force: ForceSeccomp, Store: s, World: w,
		Progress: func(pctx context.Context, ev ProgressEvent) {
			once.Do(func() { close(started) })
			<-pctx.Done()
		},
	}
	ch, err := p.Submit(ctx, Job{Name: "victim", Dockerfile: echoDockerfile, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("build never reached an instruction boundary")
	}
	cancel()
	var r JobResult
	select {
	case r = <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job never returned")
	}
	if !r.Cancelled {
		t.Fatalf("cancelled running job: Cancelled=false, err=%v", r.Err)
	}
	if r.Result == nil {
		t.Fatal("cancelled in-flight job should carry its partial Result")
	}
	if r.Result.Executed != 0 {
		t.Fatalf("build gated before its first instruction executed %d, want 0", r.Result.Executed)
	}
}
