package flight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGroupSingleFlight: of N racers joining one key, exactly one leads.
// The leader's failed Finish wakes every waiter with its error; they
// rejoin, exactly one of them leads the next flight, and its successful
// Finish hands the value to the rest.
func TestGroupSingleFlight(t *testing.T) {
	const n = 16
	errFill := errors.New("fill failed")
	var (
		mu      sync.Mutex // the owner's lock
		g       Group[int]
		gate    = make(chan struct{})
		done    sync.WaitGroup
		joined  [2]sync.WaitGroup // per round: racers that have joined
		leaders [2]atomic.Int32
		woken   atomic.Int32 // waiters woken by the failed first flight
	)
	joined[0].Add(n)
	joined[1].Add(n - 1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			<-gate
			for round := 0; round < 2; round++ {
				mu.Lock()
				f, leader := g.Join("k")
				mu.Unlock()
				joined[round].Done()
				if leader {
					leaders[round].Add(1)
					// Finish only once every racer of the round holds f.
					joined[round].Wait()
					mu.Lock()
					if round == 0 {
						g.Finish("k", 0, errFill)
					} else {
						g.Finish("k", 42, nil)
					}
					mu.Unlock()
					return
				}
				v, err := f.Wait()
				if round == 0 {
					if !errors.Is(err, errFill) {
						t.Errorf("waiter on the failed flight got (%d, %v), want %v", v, err, errFill)
					}
					woken.Add(1)
					continue
				}
				if err != nil || v != 42 {
					t.Errorf("waiter on the second flight got (%d, %v), want (42, nil)", v, err)
				}
				return
			}
		}()
	}
	close(gate)
	done.Wait()

	if got := leaders[0].Load(); got != 1 {
		t.Errorf("first-round leaders = %d, want 1", got)
	}
	if got := woken.Load(); got != n-1 {
		t.Errorf("waiters woken by the failed finish = %d, want %d", got, n-1)
	}
	if got := leaders[1].Load(); got != 1 {
		t.Errorf("second-round leaders = %d, want 1", got)
	}
	// A finished key holds no flight: the next Join leads a fresh one.
	mu.Lock()
	defer mu.Unlock()
	if _, leader := g.Join("k"); !leader {
		t.Error("Join after Finish joined a stale flight")
	}
}

// Flights on distinct keys are independent.
func TestGroupKeysIndependent(t *testing.T) {
	var g Group[string]
	a, leadA := g.Join("a")
	_, leadB := g.Join("b")
	if !leadA || !leadB {
		t.Fatalf("leaders: a=%v b=%v, want both", leadA, leadB)
	}
	g.Finish("a", "va", nil)
	if v, err := a.Wait(); v != "va" || err != nil {
		t.Fatalf("a = (%q, %v)", v, err)
	}
	if _, lead := g.Join("b"); lead {
		t.Fatal("finishing a ended b's flight")
	}
}
