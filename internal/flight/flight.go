// Package flight is the engine's one single-flight primitive: of many
// goroutines that miss on the same key at once, one (the leader) does the
// work and the rest wait for its outcome.
//
// A Group has no lock of its own. Its owner guards every Join and Finish
// with the mutex that already guards the owner's result map, so checking
// that map and beginning a flight happen in one critical section: no
// goroutine can miss the map and then find the flight already gone.
package flight

// Group is a set of in-progress flights, one per key. The zero Group is
// ready to use.
type Group[V any] struct {
	flights map[string]*Flight[V]
}

// Flight is one in-progress computation. Wait blocks until the leader
// finishes it.
type Flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Join returns the flight in progress for key, or begins one with the
// caller as its leader. A leader must end the flight with Finish. The
// caller holds the owner's lock.
func (g *Group[V]) Join(key string) (f *Flight[V], leader bool) {
	if f, ok := g.flights[key]; ok {
		return f, false
	}
	if g.flights == nil {
		g.flights = map[string]*Flight[V]{}
	}
	f = &Flight[V]{done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// Finish ends the leader's flight for key: the next Join on key begins a
// new flight, and every waiter wakes with (val, err). A waiter that treats
// err as "retry" loops back to Join, and the first to get there leads the
// next flight. The caller holds the owner's lock.
func (g *Group[V]) Finish(key string, val V, err error) {
	f := g.flights[key]
	delete(g.flights, key)
	f.val, f.err = val, err
	close(f.done)
}

// Wait blocks until the flight's leader finishes and returns its outcome.
// Call it without the owner's lock held.
func (f *Flight[V]) Wait() (V, error) {
	<-f.done
	return f.val, f.err
}
